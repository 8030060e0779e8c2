/**
 * @file
 * Figure-shape regression tests: miniature versions of the paper's
 * headline results, asserted as orderings and ratio bands so that
 * future cost-model or mechanism changes cannot silently break the
 * reproduction. These are the claims EXPERIMENTS.md reports.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/cider_system.h"
#include "persona/libc.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

bool
runsIos(SystemConfig config)
{
    return config == SystemConfig::CiderIos ||
           config == SystemConfig::IPadMini;
}

std::unique_ptr<CiderSystem>
boot(SystemConfig config)
{
    SystemOptions opts;
    opts.config = config;
    return std::make_unique<CiderSystem>(opts);
}

/** Run @p body in a process holding the config's binary persona. */
std::uint64_t
measureIn(CiderSystem &sys, const std::function<void(persona::Libc &)> &body)
{
    bool ios = runsIos(sys.config());
    std::uint64_t ns = 0;
    sys.runInProcess("shape",
                     ios ? kernel::Persona::Ios
                         : kernel::Persona::Android,
                     [&](binfmt::UserEnv &env) {
                         persona::Libc posix(env);
                         ns = measureVirtual([&] { body(posix); });
                         return 0;
                     });
    return ns;
}

TEST(FigureShapes, NullSyscallOverheadBands)
{
    setLogQuiet(true);
    auto vanilla = boot(SystemConfig::VanillaAndroid);
    auto cider_a = boot(SystemConfig::CiderAndroid);
    auto cider_i = boot(SystemConfig::CiderIos);

    auto null_cost = [&](CiderSystem &sys) {
        return measureIn(sys,
                         [](persona::Libc &posix) { posix.nullSyscall(); });
    };
    double base = static_cast<double>(null_cost(*vanilla));
    double ca = static_cast<double>(null_cost(*cider_a)) / base;
    double ci = static_cast<double>(null_cost(*cider_i)) / base;
    // Paper: +8.5% and +40%.
    EXPECT_NEAR(ca, 1.085, 0.03);
    EXPECT_NEAR(ci, 1.40, 0.06);
}

TEST(FigureShapes, ForkExitRatioBand)
{
    setLogQuiet(true);
    auto fork_exit = [](CiderSystem &sys) {
        return measureIn(sys, [&sys](persona::Libc &posix) {
            int pid = posix.fork([&sys](kernel::Thread &t) -> int {
                binfmt::UserEnv cenv{sys.kernel(), t, {}};
                persona::Libc child(cenv);
                child.exit(0);
            });
            int status;
            posix.waitpid(pid, &status);
        });
    };

    auto vanilla = boot(SystemConfig::VanillaAndroid);
    double base = static_cast<double>(fork_exit(*vanilla));

    auto cider_a = boot(SystemConfig::CiderAndroid);
    double ca = static_cast<double>(fork_exit(*cider_a)) / base;
    EXPECT_LT(ca, 1.15); // "negligible overhead"

    // iOS binaries need the dylib footprint to exist: run the fork
    // from a Mach-O image so dyld has populated the address space.
    auto cider_i = boot(SystemConfig::CiderIos);
    std::uint64_t ci_ns = 0;
    cider_i->installMachOExecutable(
        "/data/shape", "shape.main", [&](binfmt::UserEnv &env) {
            persona::Libc posix(env);
            ci_ns = measureVirtual([&] {
                int pid = posix.fork(
                    [&env](kernel::Thread &t) -> int {
                        binfmt::UserEnv cenv{env.kernel, t, {}};
                        persona::Libc child(cenv);
                        child.exit(0);
                    });
                int status;
                posix.waitpid(pid, &status);
            });
            return 0;
        });
    cider_i->runProgram("/data/shape");
    double ci = static_cast<double>(ci_ns) / base;
    // Paper: "almost 14 times longer".
    EXPECT_GT(ci, 8.0);
    EXPECT_LT(ci, 20.0);
}

TEST(FigureShapes, IpadSelectDegradesAndFails)
{
    setLogQuiet(true);
    auto ipad = boot(SystemConfig::IPadMini);
    int rc = ipad->runInProcess(
        "sel", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            persona::Libc posix(env);
            std::vector<int> fds;
            for (int i = 0; i < 125; ++i) {
                int pair_fds[2];
                posix.pipe(pair_fds);
                fds.push_back(pair_fds[0]);
                fds.push_back(pair_fds[1]);
            }
            std::vector<int> none, ready;
            std::vector<int> small(fds.begin(), fds.begin() + 100);
            if (posix.select(small, none, ready) < 0)
                return 1; // 100 fds must work
            // 250 descriptors: "simply failed to complete".
            if (posix.select(fds, none, ready) >= 0)
                return 2;
            return 0;
        });
    EXPECT_EQ(rc, 0);

    // The same 250-fd select works fine on Cider.
    auto cider = boot(SystemConfig::CiderIos);
    rc = cider->runInProcess(
        "sel", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            persona::Libc posix(env);
            std::vector<int> fds;
            for (int i = 0; i < 125; ++i) {
                int pair_fds[2];
                posix.pipe(pair_fds);
                fds.push_back(pair_fds[0]);
                fds.push_back(pair_fds[1]);
            }
            std::vector<int> none, ready;
            return posix.select(fds, none, ready) >= 0 ? 0 : 1;
        });
    EXPECT_EQ(rc, 0);
}

TEST(FigureShapes, NativeIosBeatsDalvikOnSameHardware)
{
    setLogQuiet(true);
    // Vanilla Android: interpreted integer kernel.
    auto vanilla = boot(SystemConfig::VanillaAndroid);
    binfmt::DexFile dex;
    {
        binfmt::DexAssembler as(dex, "spin", 2);
        as.constI(1).store(1);
        std::int64_t top = as.here();
        as.load(0);
        std::size_t done = as.jz();
        as.load(1).load(0).op(binfmt::DexOp::Add).store(1);
        as.load(0).constI(1).op(binfmt::DexOp::Sub).store(0);
        as.op(binfmt::DexOp::Jmp, top);
        as.patch(done, as.here());
        as.load(1).ret();
        as.finish();
    }
    std::uint64_t dalvik_ns = 0;
    vanilla->runInProcess(
        "pm", kernel::Persona::Android, [&](binfmt::UserEnv &) {
            dalvik_ns = measureVirtual([&] {
                vanilla->dalvik().run(dex, "spin",
                                      {std::int64_t{5000}});
            });
            return 0;
        });

    // Cider iOS: the native build of the same loop.
    auto cider = boot(SystemConfig::CiderIos);
    std::uint64_t native_ns = 0;
    cider->runInProcess(
        "pm", kernel::Persona::Ios, [&](binfmt::UserEnv &) {
            const auto &p = cider->profile();
            native_ns = measureVirtual([&] {
                p.chargeCpuOps(hw::CpuOp::IntAdd,
                               hw::Codegen::XcodeClang, 3 * 5000);
            });
            return 0;
        });

    // Figure 6 CPU: native wins by a clear factor on the same device.
    EXPECT_GT(dalvik_ns, 2 * native_ns);
}

TEST(FigureShapes, DiplomatOverheadWithinPaperBand)
{
    setLogQuiet(true);
    auto cider = boot(SystemConfig::CiderIos);

    // Per-GL-call cost: domestic direct vs through the generated
    // diplomats (a microcosm of the 3D group's 20-37%).
    std::uint64_t direct_ns = 0, diplomatic_ns = 0;
    cider->runInProcess(
        "gl", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            const binfmt::SymbolTable &domestic =
                cider->androidLibraries()
                    .find("libGLESv2.so")
                    ->exports;
            const binfmt::SymbolTable &foreign =
                cider->iosLibraries().find("OpenGLES.dylib")->exports;
            std::vector<binfmt::Value> args{std::int64_t{1}, 0.5};
            foreign.find("glUniform1f")->fn(env, args); // warm cache

            // Run the domestic side under the Android persona, as
            // SurfaceFlinger or an Android app would.
            cider->personaManager()->setPersona(
                env.thread, kernel::Persona::Android);
            direct_ns = measureVirtual([&] {
                for (int i = 0; i < 200; ++i)
                    domestic.find("glUniform1f")->fn(env, args);
            });
            cider->personaManager()->setPersona(env.thread,
                                                kernel::Persona::Ios);
            diplomatic_ns = measureVirtual([&] {
                for (int i = 0; i < 200; ++i)
                    foreign.find("glUniform1f")->fn(env, args);
            });
            return 0;
        });
    // Each mediated call costs strictly more, by a bounded factor.
    EXPECT_GT(diplomatic_ns, direct_ns);
    EXPECT_LT(diplomatic_ns, 40 * direct_ns);
}

} // namespace
} // namespace cider
