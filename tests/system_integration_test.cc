/**
 * @file
 * End-to-end tests: boot a full Cider system, install an .ipa from
 * the (simulated) App Store, launch it from the Android home screen
 * through CiderPress, drive it with multi-touch input through the
 * eventpump bridge, render through diplomatic EAGL/OpenGL ES into
 * SurfaceFlinger, and tear everything down.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "base/logging.h"
#include "core/cider_system.h"
#include "ios/eagl.h"
#include "ios/libsystem.h"
#include "ios/services.h"
#include "ios/uikit.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

// Shared state the test app reports into.
struct AppProbe
{
    void
    reset()
    {
        launches = 0;
        touches = 0;
        taps = 0;
        pinches = 0;
        pauses = 0;
        resumes = 0;
        framesPresented = 0;
    }

    std::atomic<int> launches{0};
    std::atomic<int> touches{0};
    std::atomic<int> taps{0};
    std::atomic<int> pinches{0};
    std::atomic<int> pauses{0};
    std::atomic<int> resumes{0};
    std::atomic<int> framesPresented{0};
};

AppProbe g_probe;

/** A UIKit app that renders one GL frame per touch. */
int
testAppMain(binfmt::UserEnv &env)
{
    ios::UIApplication app(env);

    // Resolve the (diplomatic) graphics entry points like a real app:
    // through dyld's loaded-image tables.
    const binfmt::Symbol *eagl_create =
        ios::Dyld::resolve(env, ios::kEaglCreateContext);
    const binfmt::Symbol *eagl_current =
        ios::Dyld::resolve(env, ios::kEaglSetCurrent);
    const binfmt::Symbol *eagl_present =
        ios::Dyld::resolve(env, ios::kEaglPresent);
    const binfmt::Symbol *gl_clear_color =
        ios::Dyld::resolve(env, "glClearColor");
    const binfmt::Symbol *gl_clear = ios::Dyld::resolve(env, "glClear");
    const binfmt::Symbol *gl_draw =
        ios::Dyld::resolve(env, "glDrawArrays");
    if (!eagl_create || !eagl_current || !eagl_present ||
        !gl_clear_color || !gl_clear || !gl_draw)
        return 3;

    std::int64_t ctx = 0;
    app.onLaunch = [&](ios::UIApplication &) {
        ++g_probe.launches;
        std::vector<binfmt::Value> args{std::int64_t{320},
                                        std::int64_t{480}};
        ctx = binfmt::valueI64(eagl_create->fn(env, args));
        std::vector<binfmt::Value> cur{ctx};
        eagl_current->fn(env, cur);
    };
    app.onTouch = [&](ios::UIApplication &, const ios::Touch &) {
        ++g_probe.touches;
        std::vector<binfmt::Value> cc{0.1, 0.2, 0.3, 1.0};
        gl_clear_color->fn(env, cc);
        std::vector<binfmt::Value> none{};
        gl_clear->fn(env, none);
        std::vector<binfmt::Value> draw{std::int64_t{4},
                                        std::int64_t{0},
                                        std::int64_t{600}};
        gl_draw->fn(env, draw);
        std::vector<binfmt::Value> present{ctx};
        eagl_present->fn(env, present);
        ++g_probe.framesPresented;
    };
    app.onPause = [](ios::UIApplication &) { ++g_probe.pauses; };
    app.onResume = [](ios::UIApplication &) { ++g_probe.resumes; };
    app.addRecognizer(std::make_unique<ios::TapGestureRecognizer>(
        [](float, float) { ++g_probe.taps; }));
    app.addRecognizer(std::make_unique<ios::PinchGestureRecognizer>(
        [](float scale) {
            if (scale > 1.5f)
                ++g_probe.pinches;
        }));

    std::string socket_path =
        env.argv.size() > 1 ? env.argv[1] : std::string();
    return app.run(socket_path);
}

android::MotionEvent
motion(android::MotionAction action, int pid, float x, float y,
       int count = 1)
{
    android::MotionEvent ev;
    ev.action = action;
    ev.pointerId = pid;
    ev.x = x;
    ev.y = y;
    ev.pointerCount = count;
    return ev;
}

TEST(SystemIntegration, IosAppFullLifecycleOnCider)
{
    g_probe.reset();
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    opts.startServices = true;
    CiderSystem sys(opts);

    // "Download" + install the app.
    core::IpaPackage package;
    package.appName = "CalculatorPro";
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry("testapp.main")
        .codegen(hw::Codegen::XcodeClang)
        .segment("__TEXT", 24)
        .dylib("libSystem.dylib")
        .dylib("UIKit.dylib");
    package.binary = builder.build();
    package.icon = Bytes{1, 2, 3, 4};
    package.infoPlist["CFBundleIdentifier"] = "com.test.calc";
    sys.programs().add("testapp.main", testAppMain);

    std::string path = sys.installIpa(core::buildIpa(package));
    ASSERT_FALSE(path.empty());
    ASSERT_NE(sys.launcher().find("CalculatorPro"), nullptr);

    // Click the home-screen icon: Launcher -> CiderPress -> exec.
    int session = sys.launcher().launch("CalculatorPro");
    ASSERT_GE(session, 0);
    android::CiderPress &cp = sys.ciderPress();

    // Tap.
    sys.input().inject(motion(android::MotionAction::Down, 0, 100, 100));
    sys.input().inject(motion(android::MotionAction::Up, 0, 102, 101));

    // Pinch out with two fingers.
    sys.input().inject(motion(android::MotionAction::Down, 0, 100, 100, 1));
    sys.input().inject(
        motion(android::MotionAction::PointerDown, 1, 120, 100, 2));
    sys.input().inject(motion(android::MotionAction::Move, 1, 220, 100, 2));
    sys.input().inject(
        motion(android::MotionAction::PointerUp, 1, 220, 100, 2));
    sys.input().inject(motion(android::MotionAction::Up, 0, 100, 100, 1));

    // Lifecycle round trip.
    cp.pause(session);
    cp.resume(session);

    // Shut the app down and reap it.
    cp.stop(session);
    int rc = cp.join(session);
    EXPECT_EQ(rc, 0);

    EXPECT_EQ(g_probe.launches.load(), 1);
    EXPECT_GE(g_probe.touches.load(), 7);
    EXPECT_GE(g_probe.taps.load(), 1);
    EXPECT_GE(g_probe.pinches.load(), 1);
    EXPECT_EQ(g_probe.pauses.load(), 1);
    EXPECT_EQ(g_probe.resumes.load(), 1);
    EXPECT_GE(g_probe.framesPresented.load(), 7);

    // The app rendered through diplomats into SurfaceFlinger and out
    // to the Linux framebuffer.
    EXPECT_GT(sys.framebuffer().presentCount(), 0u);
    EXPECT_GT(sys.gpu().stats().vertices, 0u);
    gpu::GraphicsBuffer shot = cp.screenshot(session);
    EXPECT_GT(shot.width, 0u);
    bool nonzero = false;
    for (std::uint32_t px : shot.pixels)
        if (px != 0)
            nonzero = true;
    EXPECT_TRUE(nonzero);

    // Persona switches happened (diplomatic GL).
    EXPECT_GT(sys.personaManager()->personaSwitches(), 0u);
}

TEST(SystemIntegration, EncryptedIpaRejectedUntilDecrypted)
{
    setLogQuiet(true);
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    core::IpaPackage package;
    package.appName = "Papers";
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry("papers.main").segment("__TEXT", 8);
    package.binary = builder.build();

    Bytes encrypted = core::buildIpa(package, /*encrypt=*/true);
    EXPECT_EQ(sys.installIpa(encrypted), "");

    // Wrong key produces garbage that still fails to install (the
    // inner binary is not valid Mach-O).
    Bytes badly = core::decryptIpa(encrypted, 0xdeadbeef);
    auto parsed = core::parseIpa(badly);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(binfmt::isMachO(parsed->binary));

    // The jailbroken-device workflow with the right key works.
    Bytes decrypted = core::decryptIpa(encrypted, core::kAppleDeviceKey);
    EXPECT_NE(sys.installIpa(decrypted), "");
    setLogQuiet(false);
}

TEST(SystemIntegration, MachServicesReachableFromIosApps)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    opts.startServices = true;
    CiderSystem sys(opts);

    int rc = sys.runInProcess(
        "stocks", kernel::Persona::Ios, [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            if (!ios::configSet(libc, "AppleLocale", "en_US"))
                return 1;
            if (ios::configGet(libc, "AppleLocale") != "en_US")
                return 2;

            // notifyd round trip to our own port.
            xnu::mach_port_name_t port =
                libc.machPortAllocate(xnu::PortRight::Receive);
            if (!ios::notifyRegister(libc, "com.test.ping", port))
                return 3;
            if (!ios::notifyPost(libc, "com.test.ping"))
                return 4;
            xnu::MachMessage msg;
            if (libc.machMsgReceive(port, msg) != xnu::KERN_SUCCESS)
                return 5;
            if (msg.header.msgId != ios::notifymsg::Event)
                return 6;
            return 0;
        });
    EXPECT_EQ(rc, 0);
}

TEST(SystemIntegration, VanillaAndroidCannotRunMachO)
{
    setLogQuiet(true);
    SystemOptions opts;
    opts.config = SystemConfig::VanillaAndroid;
    CiderSystem sys(opts);

    // An ELF binary runs.
    sys.installElfExecutable("/system/bin/hello", "hello.main",
                             [](binfmt::UserEnv &) { return 42; });
    EXPECT_EQ(sys.runProgram("/system/bin/hello"), 42);

    // A Mach-O binary is ENOEXEC on the vanilla kernel.
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry("hello.main").segment("__TEXT", 4);
    sys.kernel().vfs().writeFile("/data/ios.bin", builder.build());
    EXPECT_EQ(sys.runProgram("/data/ios.bin"), 127);
    setLogQuiet(false);
}

TEST(SystemIntegration, RunProgramReapsWhatItRuns)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);
    sys.installMachOExecutable("/data/once", "once.main",
                               [](binfmt::UserEnv &) { return 0; });

    std::size_t before = sys.kernel().processCount();
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(sys.runProgram("/data/once"), 0);
    EXPECT_EQ(sys.kernel().processCount(), before);
    sys.runInProcess("probe", kernel::Persona::Ios,
                     [](binfmt::UserEnv &) { return 0; });
    EXPECT_EQ(sys.kernel().processCount(), before);
}

TEST(SystemIntegration, WaitedChildrenLeaveNoProcessBehind)
{
    // An iOS app that forks one child and wait4s it, run three times:
    // each wait reaps its child, address space and all.
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);
    kernel::Kernel &k = sys.kernel();
    std::vector<int> children;
    sys.installMachOExecutable(
        "/data/forkwait", "forkwait.main",
        [&](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            int pid = libc.fork([](kernel::Thread &) { return 0; });
            int status = -1;
            if (libc.wait4(pid, &status) != pid || status != 0)
                return 1;
            children.push_back(pid);
            return k.findProcess(pid) ? 2 : 0;
        });

    std::size_t before = k.processCount();
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(sys.runProgram("/data/forkwait"), 0);
    EXPECT_EQ(k.processCount(), before);
    std::uint64_t pages = 0;
    k.forEachProcess(
        [&pages](kernel::Process &p) { pages += p.mem().pages(); });
    EXPECT_EQ(pages, 0u);
    ASSERT_EQ(children.size(), 3u);
    for (int pid : children)
        EXPECT_FALSE(k.reapProcess(pid)); // the wait released it
}

TEST(SystemIntegration, IosAppsSeeOverlaidFilesystem)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    int rc = sys.runInProcess(
        "files", kernel::Persona::Ios, [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            int fd = libc.open("/Documents/note.txt",
                               kernel::oflag::CREAT |
                                   kernel::oflag::RDWR);
            if (fd < 0)
                return 1;
            Bytes data{'h', 'i'};
            if (libc.write(fd, data) != 2)
                return 2;
            libc.close(fd);
            return 0;
        });
    EXPECT_EQ(rc, 0);
    // The overlay landed the file in the Android-side hierarchy.
    EXPECT_TRUE(sys.kernel().vfs().exists("/data/ios/Documents/note.txt"));
}

} // namespace
} // namespace cider
