#include "core/cider_system.h"

#include <chrono>
#include <thread>

#include "android/bionic.h"
#include "android/egl.h"
#include "android/gles.h"
#include "android/gralloc.h"
#include "android/location.h"
#include "base/cost_clock.h"
#include "base/logging.h"
#include "binfmt/elf.h"
#include "binfmt/macho.h"
#include "ducttape/xnu_api.h"
#include "iokit/block_storage.h"
#include "iokit/framebuffer.h"
#include "iokit/io_surface.h"
#include "iokit/linux_bridge.h"
#include "iokit/stub_families.h"
#include "ios/eagl.h"
#include "ios/corelocation.h"
#include "ios/gles_diplomatic.h"
#include "ios/iosurface_lib.h"
#include "ios/libsystem.h"
#include "ios/services.h"

namespace cider::core {

CiderSystem::CiderSystem(const SystemOptions &opts)
    : opts_(opts), profile_(profileFor(opts.config))
{
    kernel_ = std::make_unique<kernel::Kernel>(profile_);
    machIpc_ = std::make_unique<xnu::MachIpc>();
    // Zero-copy OOL and body auto-promotion account against the
    // kernel's VM subsystem (and its device profile).
    machIpc_->setVm(&kernel_->vm());
    psynch_ = std::make_unique<xnu::PsynchSubsystem>();

    setupDevices();

    if (hostsIos(opts_.config)) {
        persona::PersonaCosts costs;
        if (opts_.config == SystemConfig::IPadMini) {
            // The iPad's kernel *is* XNU: no persona checks, no
            // convention translation — the foreign ABI is native.
            costs.personaCheckCycles = 0;
            costs.xnuConventionCycles = 0;
            costs.machTrapCycles = 0;
            costs.setPersonaCycles = 0;
            costs.signalLookupCycles = 0;
            costs.iosSignalTranslateCycles = 0;
        }
        persona_ = std::make_unique<persona::PersonaManager>(
            *kernel_, *machIpc_, *psynch_, costs);
        persona_->install();
        setupCiderExtensions();

        // Per-task Mach state plumbing: fork re-initialises Mach IPC
        // state for the child (the small fork cost the paper notes),
        // and exec grafts the bootstrap port into the fresh image.
        kernel_->addForkHook(
            [this](kernel::Process &, kernel::Process &child) {
                charge(profile_.cyclesToNs(500)); // Mach IPC task init
                if (launchd_ && launchd_->running())
                    xnu::setBootstrapPort(
                        *machIpc_, child,
                        launchd_->bootstrapPortObject());
            });
        kernel_->addExecHook([this](kernel::Process &proc) {
            if (launchd_ && launchd_->running())
                xnu::setBootstrapPort(*machIpc_, proc,
                                      launchd_->bootstrapPortObject());
        });
    }

    if (opts_.config != SystemConfig::IPadMini)
        setupAndroidUserSpace();
    if (hostsIos(opts_.config))
        setupIosUserSpace();

    // binfmt handlers. The vanilla kernel knows only ELF; Cider adds
    // the in-kernel Mach-O loader; the iPad only loads Mach-O.
    if (opts_.config != SystemConfig::IPadMini) {
        binfmt::ElfBootstrap elf_bootstrap =
            [this](binfmt::UserEnv &env, const binfmt::ElfImage &img) {
                for (const std::string &dep : img.needed) {
                    const binfmt::LibraryImage *lib =
                        androidLibs_.find(dep);
                    if (!lib) {
                        warn("linker: missing ", dep);
                        continue;
                    }
                    charge(profile_.storageOpenNs +
                           profile_.cyclesToNs(6000));
                    env.process().mem().addMapping(
                        env.kernel.vm().intern("so:" + dep), lib->pages);
                }
            };
        kernel_->registerLoader(std::make_unique<binfmt::ElfLoader>(
            programs_, std::move(elf_bootstrap)));
    }
    if (hostsIos(opts_.config)) {
        kernel_->registerLoader(std::make_unique<binfmt::MachOLoader>(
            programs_, dyld_->asBootstrap()));
    }

    if (opts_.startServices && hostsIos(opts_.config))
        startServices();
}

CiderSystem::~CiderSystem()
{
    // Stop hosted iOS apps before the services they talk to.
    ciderPress_.reset();
    if (launchd_ && launchd_->running()) {
        runInProcess("shutdown-client", kernel::Persona::Ios,
                     [](binfmt::UserEnv &env) {
                         ios::LibSystem libc(env);
                         ios::serviceShutdown(
                             libc, ios::configmsg::kServiceName,
                             ios::configmsg::Shutdown);
                         ios::serviceShutdown(
                             libc, ios::notifymsg::kServiceName,
                             ios::notifymsg::Shutdown);
                         return 0;
                     });
        launchd_->stop();
    }
    launchd_.reset(); // joins service threads
}

void
CiderSystem::setupDevices()
{
    gpu_ = std::make_unique<gpu::SimGpu>(profile_);

    bool ipad = opts_.config == SystemConfig::IPadMini;
    std::uint32_t w = ipad ? 1024 : 1280;
    std::uint32_t h = ipad ? 768 : 800;

    auto gpu_dev = std::make_unique<gpu::GpuDevice>(*gpu_);
    gpuDevice_ = gpu_dev.get();
    kernel_->devices().add(std::move(gpu_dev));
    kernel_->vfs().mknod("/dev/nvhost", gpuDevice_);

    auto fb_dev = std::make_unique<gpu::FramebufferDevice>(*gpu_, w, h);
    fbDevice_ = fb_dev.get();
    kernel_->devices().add(std::move(fb_dev));
    kernel_->vfs().mknod("/dev/fb0", fbDevice_);

    // Touchscreen node (bridged into I/O Kit for device queries).
    auto touch = std::make_unique<kernel::Device>("touchscreen",
                                                  "input");
    touch->setProperty("vendor", "elan");
    touch->setProperty("max-points", "10");
    kernel_->devices().add(std::move(touch));

    // Two NICs on the loopback fabric (addresses 1 and 2), a flash
    // block device, and an audio codec — providers for the I/O Kit
    // driver families registered in setupCiderExtensions.
    auto eth0 = std::make_unique<kernel::Device>("eth0", "network");
    eth0->setProperty("address", "1");
    eth0->setProperty("tx-depth", "32");
    kernel_->devices().add(std::move(eth0));
    auto eth1 = std::make_unique<kernel::Device>("eth1", "network");
    eth1->setProperty("address", "2");
    eth1->setProperty("tx-depth", "32");
    kernel_->devices().add(std::move(eth1));

    auto flash = std::make_unique<kernel::Device>("flash0", "block");
    flash->setProperty("queue-depth", "8");
    kernel_->devices().add(std::move(flash));

    auto hda = std::make_unique<kernel::Device>("hda0", "audio");
    hda->setProperty("codec", "sim-hda");
    kernel_->devices().add(std::move(hda));

    if (opts_.hasGps) {
        auto gps = std::make_unique<android::GpsDevice>(
            opts_.gpsLatitude, opts_.gpsLongitude);
        kernel::Device &dev = kernel_->devices().add(std::move(gps));
        kernel_->vfs().mknod("/dev/gps0", &dev);
    }
}

void
CiderSystem::setupCiderExtensions()
{
    // Duct tape: declare the adaptation layer in the symbol registry
    // (conflict detection/remapping included).
    ducttape::registerDuctTapeSymbols(symbols_);

    // I/O Kit, compiled into the kernel via the added C++ runtime.
    ioRegistry_ = std::make_unique<iokit::IORegistry>(cxxRuntime_);
    ioCatalogue_ = std::make_unique<iokit::IOCatalogue>(*ioRegistry_);
    iokit::installLinuxBridge(kernel_->devices(), *ioRegistry_);

    // Driver classes register through kernel-boot static ctors.
    iokit::AppleM2CLCD::registerDriver(cxxRuntime_, *ioCatalogue_);
    gpu::SimGpu *g = gpu_.get();
    cxxRuntime_.addStaticConstructor(
        "IOSurfaceRoot", [this, g] {
            iokit::OSDictionary match;
            match[iokit::kLinuxClassKey] = std::string("gpu");
            ioCatalogue_->addDriver(
                "IOSurfaceRoot", match,
                [g](ducttape::KernelCxxRuntime &rt)
                    -> iokit::IOService * {
                    return new iokit::IOSurfaceRoot(rt, g->buffers());
                });
        });
    iokit::IONetworkController::registerDriver(
        cxxRuntime_, *ioCatalogue_, *ioRegistry_, kernel_->net(),
        netFabric_);
    iokit::IOBlockStorageDriver::registerDriver(cxxRuntime_,
                                                *ioCatalogue_, profile_);
    iokit::IOHDACodec::registerDriver(cxxRuntime_, *ioCatalogue_);
    iokit::IOAccelerator::registerDriver(cxxRuntime_, *ioCatalogue_);
    cxxRuntime_.bootConstructors();

    iokit::registerIoKitTraps(persona_->machTable(), *ioCatalogue_);

    // /proc/cider/iokit: the registry tree + matching statistics.
    kernel_->addProcNode("iokit", [&registry = *ioRegistry_,
                                   &catalogue = *ioCatalogue_] {
        return iokit::dumpIoKit(registry, catalogue);
    });
}

void
CiderSystem::setupAndroidUserSpace()
{
    flinger_ =
        std::make_unique<android::SurfaceFlinger>(*gpu_, *fbDevice_);
    dalvik_ = std::make_unique<android::DalvikVm>(profile_);

    // DexJit: system-wide translation cache, observable at
    // /proc/cider/jit, flushed whenever a process image goes away —
    // exec replaces it or the process exits (unload).
    jitCache_ = std::make_unique<android::TranslationCache>();
    dalvik_->setTranslationCache(jitCache_.get());
    kernel_->addProcNode("jit",
                         [&cache = *jitCache_] { return cache.dump(); });
    kernel_->addExecHook([this](kernel::Process &) {
        jitCache_->invalidateAll("exec");
    });
    kernel_->addUnloadHook([this](kernel::Process &) {
        jitCache_->invalidateAll("unload");
    });

    androidLibs_.add(android::makeGrallocLibrary(gpu_->buffers()));
    androidLibs_.add(android::makeGlesLibrary());
    androidLibs_.add(android::makeEglLibrary(*flinger_));
    androidLibs_.add(android::makeEglBridgeLibrary(*flinger_));
    if (opts_.hasGps)
        androidLibs_.add(android::makeLocationLibrary());

    // Write genuine ELF shared-object blobs into /system/lib so the
    // diplomat generator has a real directory to search.
    kernel_->vfs().mkdirAll("/system/lib");
    for (const std::string &name : androidLibs_.names()) {
        const binfmt::LibraryImage *lib = androidLibs_.find(name);
        binfmt::ElfBuilder builder(binfmt::ElfType::Dyn);
        builder.segment(".text", lib->pages);
        for (const std::string &sym : lib->exports.names())
            builder.exportSymbol(sym);
        for (const std::string &dep : lib->deps)
            builder.needed(dep);
        std::string path = "/system/lib/" + name;
        kernel_->vfs().writeFile(path, builder.build());
        kernel::Lookup lk = kernel_->vfs().lookup(path);
        if (lk.inode)
            lk.inode->imageTag = name;
    }

    if (isCider(opts_.config)) {
        ciderPress_ = std::make_unique<android::CiderPress>(
            *kernel_, input_, *flinger_);
        launcher_.setLaunchFn(
            [this](const android::Shortcut &shortcut) -> int {
                if (!shortcut.iosBinary.empty())
                    return ciderPress_->launchIosApp(
                        shortcut.iosBinary);
                warn("launcher: only CiderPress shortcuts supported");
                return -1;
            });
    }
}

void
CiderSystem::setupIosUserSpace()
{
    dyld_ = std::make_unique<ios::Dyld>(iosLibs_);
    bool ipad = opts_.config == SystemConfig::IPadMini;

    // iOS filesystem overlay onto the Android hierarchy (paper
    // section 3).
    kernel_->vfs().mkdirAll("/data/ios/Documents");
    kernel_->vfs().mkdirAll("/data/ios/Library");
    kernel_->vfs().mkdirAll("/data/ios/mobile");
    kernel_->vfs().addOverlay("/Documents", "/data/ios/Documents");
    kernel_->vfs().addOverlay("/Library", "/data/ios/Library");
    kernel_->vfs().addOverlay("/var/mobile", "/data/ios/mobile");
    kernel_->vfs().mkdirAll("/usr/lib");

    auto add_framework = [this](binfmt::LibraryImage lib) {
        binfmt::MachOBuilder builder(binfmt::MachOFileType::Dylib);
        builder.segment("__TEXT", lib.pages);
        for (const std::string &sym : lib.exports.names())
            builder.exportSymbol(sym);
        for (const std::string &dep : lib.deps)
            builder.dylib(dep);
        kernel_->vfs().writeFile("/usr/lib/" + lib.name,
                                 builder.build());
        iosLibs_.add(std::move(lib));
    };

    binfmt::LibraryImage libsystem;
    libsystem.name = "libSystem.dylib";
    libsystem.pages = 180;
    libsystem.atforkHandlers = 3;
    libsystem.exitHandlers = 2;
    add_framework(std::move(libsystem));

    // Filler frameworks: the long tail of the ~115 images dyld maps
    // for every app.
    int named = 9;
    int fillers = std::max(0, opts_.iosFrameworkCount - named);
    std::vector<std::string> filler_names;
    for (int i = 0; i < fillers; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "Lib%03d.dylib", i);
        binfmt::LibraryImage filler;
        filler.name = buf;
        filler.pages = 190;
        filler.atforkHandlers = (i % 2 == 0) ? 1 : 0;
        filler.exitHandlers = 1;
        filler_names.push_back(filler.name);
        add_framework(std::move(filler));
    }

    binfmt::LibraryImage foundation;
    foundation.name = "Foundation.dylib";
    foundation.pages = 300;
    foundation.atforkHandlers = 2;
    foundation.deps = filler_names;
    foundation.deps.push_back("libSystem.dylib");
    add_framework(std::move(foundation));

    binfmt::LibraryImage coregraphics;
    coregraphics.name = "CoreGraphics.dylib";
    coregraphics.pages = 260;
    coregraphics.deps = {"libSystem.dylib"};
    add_framework(std::move(coregraphics));

    binfmt::LibraryImage quartz;
    quartz.name = "QuartzCore.dylib";
    quartz.pages = 280;
    quartz.deps = {"CoreGraphics.dylib"};
    add_framework(std::move(quartz));

    // Graphics stack: diplomatic on Cider, native on the iPad.
    if (ipad) {
        add_framework(ios::makeAppleGlesDylib());
        add_framework(ios::makeAppleEaglDylib(*gpu_));
        add_framework(ios::makeIOSurfaceDylib(
            ios::SurfaceMode::AppleIOKit, androidLibs_));
    } else {
        if (opts_.aggregateGlCalls)
            add_framework(ios::makeAggregatingGlesDylib(
                androidLibs_, opts_.fenceBug));
        else
            add_framework(ios::makeDiplomaticGlesDylib(
                generator_, kernel_->vfs(), "/system/lib",
                &glesReport_, opts_.fenceBug));
        add_framework(ios::makeDiplomaticEaglDylib(androidLibs_));
        add_framework(ios::makeIOSurfaceDylib(
            ios::SurfaceMode::CiderDiplomatic, androidLibs_));
    }

    if (opts_.hasGps) {
        if (ipad)
            add_framework(ios::makeAppleCoreLocationDylib());
        else
            add_framework(
                ios::makeDiplomaticCoreLocationDylib(androidLibs_));
    }

    binfmt::LibraryImage uikit;
    uikit.name = "UIKit.dylib";
    uikit.pages = 420;
    uikit.atforkHandlers = 4;
    uikit.deps = {"Foundation.dylib", "QuartzCore.dylib",
                  "OpenGLES.dylib",  "EAGL.dylib",
                  "IOSurface.dylib", "libSystem.dylib"};
    add_framework(std::move(uikit));

    binfmt::LibraryImage webkit;
    webkit.name = "WebKit.dylib";
    webkit.pages = 800;
    webkit.atforkHandlers = 6;
    webkit.deps = {"UIKit.dylib"};
    add_framework(std::move(webkit));
}

void
CiderSystem::startServices()
{
    launchd_ = std::make_unique<ios::Launchd>(*kernel_, *machIpc_);
    launchd_->start();
    ios::startConfigd(*launchd_);
    ios::startNotifyd(*launchd_);
    // Boot barrier: wait for both daemons to check in with the
    // bootstrap server before the system reports ready.
    for (int spin = 0; spin < 10000; ++spin) {
        if (launchd_->registeredNames().size() >= 2)
            return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    warn("service boot barrier timed out");
}

void
CiderSystem::installElfExecutable(const std::string &path,
                                  const std::string &entry_symbol,
                                  binfmt::ProgramFn fn,
                                  std::vector<std::string> needed,
                                  std::uint64_t text_pages)
{
    if (auto pos = path.find_last_of('/'); pos != std::string::npos)
        kernel_->vfs().mkdirAll(path.substr(0, pos));
    programs_.add(entry_symbol, std::move(fn));
    binfmt::ElfBuilder builder(binfmt::ElfType::Exec);
    builder.entry(entry_symbol).codegen(hw::Codegen::LinuxGcc);
    builder.segment(".text", text_pages).segment(".data", 4);
    for (const std::string &dep : needed)
        builder.needed(dep);
    kernel_->vfs().writeFile(path, builder.build());
}

void
CiderSystem::installMachOExecutable(const std::string &path,
                                    const std::string &entry_symbol,
                                    binfmt::ProgramFn fn,
                                    std::vector<std::string> dylibs,
                                    std::uint64_t text_pages)
{
    if (auto pos = path.find_last_of('/'); pos != std::string::npos)
        kernel_->vfs().mkdirAll(path.substr(0, pos));
    programs_.add(entry_symbol, std::move(fn));
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry(entry_symbol).codegen(hw::Codegen::XcodeClang);
    builder.segment("__TEXT", text_pages).segment("__DATA", 4);
    if (dylibs.empty()) {
        // Linking libSystem pulls the full framework umbrella: dyld
        // maps all ~115 images whether or not the app uses them.
        dylibs = {"libSystem.dylib", "UIKit.dylib"};
    }
    for (const std::string &dep : dylibs)
        builder.dylib(dep);
    kernel_->vfs().writeFile(path, builder.build());
}

std::string
CiderSystem::installIpa(const Bytes &ipa)
{
    std::optional<IpaPackage> package = parseIpa(ipa);
    if (!package) {
        warn("installIpa: malformed package");
        return {};
    }
    if (package->encrypted) {
        warn("installIpa: package is FairPlay-encrypted; decrypt on a "
             "jailbroken device first");
        return {};
    }
    std::string dir = "/data/ios-apps/" + package->appName;
    kernel_->vfs().mkdirAll(dir);
    std::string binary_path = dir + "/" + package->appName;
    kernel_->vfs().writeFile(binary_path, package->binary);

    android::Shortcut shortcut;
    shortcut.label = package->appName;
    shortcut.target = "ciderpress";
    shortcut.iosBinary = binary_path;
    shortcut.icon = package->icon;
    launcher_.addShortcut(std::move(shortcut));
    return binary_path;
}

int
CiderSystem::runProgram(const std::string &path,
                        std::vector<std::string> argv)
{
    int code = 0;
    runProgramTimed(path, std::move(argv), &code);
    return code;
}

std::uint64_t
CiderSystem::runProgramTimed(const std::string &path,
                             std::vector<std::string> argv,
                             int *exit_code)
{
    std::string name = path;
    if (auto pos = name.find_last_of('/'); pos != std::string::npos)
        name = name.substr(pos + 1);
    kernel::Process &proc =
        kernel_->createProcess(name, kernel::Persona::Android);
    kernel::Thread &main = proc.mainThread();
    int code = 0;
    std::uint64_t ns = 0;
    {
        kernel::ThreadScope scope(main);
        try {
            kernel::SyscallResult r = kernel_->sysExecve(main, path, argv);
            if (!r.ok()) {
                code = 127;
                proc.terminate(code, main.clock().now());
            }
        } catch (const kernel::ProcessExit &e) {
            code = e.code;
        }
        ns = main.clock().now();
    }
    // No parent waits for this process: reap it, or its address space
    // lives as long as the system.
    kernel_->reapProcess(proc.pid());
    if (exit_code)
        *exit_code = code;
    return ns;
}

int
CiderSystem::runInProcess(
    const std::string &name, kernel::Persona persona,
    const std::function<int(binfmt::UserEnv &)> &fn)
{
    kernel::Process &proc = kernel_->createProcess(name, persona);
    if (launchd_ && launchd_->running())
        xnu::setBootstrapPort(*machIpc_, proc,
                              launchd_->bootstrapPortObject());
    kernel::Thread &main = proc.mainThread();
    int rc = 0;
    {
        kernel::ThreadScope scope(main);
        binfmt::UserEnv env{*kernel_, main, {name}};
        try {
            rc = fn(env);
        } catch (const kernel::ProcessExit &e) {
            rc = e.code;
        }
        proc.terminate(rc, main.clock().now());
    }
    kernel_->reapProcess(proc.pid());
    return rc;
}

} // namespace cider::core
