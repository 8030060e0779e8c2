/**
 * @file
 * CiderSystem: the full simulated device, booted and wired.
 *
 * Construction assembles the configuration's complete software stack:
 * the domestic kernel, duct-taped subsystems (Mach IPC, psynch,
 * I/O Kit), the persona layer, the GPU and display devices, the
 * Android framework (SurfaceFlinger, input, Launcher, CiderPress),
 * and the iOS user space (dyld, frameworks, launchd + services). Apps
 * install from .ipa packages and launch from the Android home screen
 * through CiderPress, as in paper section 3.
 */

#ifndef CIDER_CORE_CIDER_SYSTEM_H
#define CIDER_CORE_CIDER_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "android/ciderpress.h"
#include "android/dalvik.h"
#include "android/dexjit.h"
#include "android/input.h"
#include "android/launcher.h"
#include "android/surfaceflinger.h"
#include "binfmt/binfmt_registry.h"
#include "binfmt/program.h"
#include "core/app_package.h"
#include "core/system_config.h"
#include "diplomat/generator.h"
#include "ducttape/cxx_runtime.h"
#include "ducttape/zones.h"
#include "gpu/sim_gpu.h"
#include "iokit/io_registry.h"
#include "iokit/io_service.h"
#include "iokit/network.h"
#include "ios/dyld.h"
#include "ios/launchd.h"
#include "kernel/kernel.h"
#include "persona/persona.h"
#include "xnu/mach_ipc.h"
#include "xnu/psynch.h"

namespace cider::core {

/** Boot-time options. */
struct SystemOptions
{
    SystemConfig config = SystemConfig::CiderIos;
    /**
     * The prototype's broken OpenGL ES fence support (paper section
     * 6.4); on by default to reproduce the published numbers.
     */
    bool fenceBug = true;
    /** Total iOS images dyld maps (the paper measured ~115). */
    int iosFrameworkCount = 115;
    /**
     * Use the aggregated-GL OpenGLES replacement (the paper's
     * future-work optimisation) instead of per-call diplomats.
     */
    bool aggregateGlCalls = false;
    /**
     * Fit the device with GPS hardware (the section 6.4 extension:
     * an I/O Kit-bridged driver plus diplomatic CoreLocation).
     */
    bool hasGps = false;
    /** Simulated GPS position (Salt Lake City by default). */
    double gpsLatitude = 40.7608;
    double gpsLongitude = -111.8910;
    /** Boot launchd/configd/notifyd service processes. */
    bool startServices = false;
};

class CiderSystem
{
  public:
    explicit CiderSystem(const SystemOptions &opts);
    ~CiderSystem();

    CiderSystem(const CiderSystem &) = delete;
    CiderSystem &operator=(const CiderSystem &) = delete;

    /// @{ Subsystem access.
    kernel::Kernel &kernel() { return *kernel_; }
    /** Per-syscall trap counters/histograms and the trace ring. */
    kernel::TrapStats &trapStats() { return kernel_->trapStats(); }
    const hw::DeviceProfile &profile() const { return profile_; }
    SystemConfig config() const { return opts_.config; }

    binfmt::ProgramRegistry &programs() { return programs_; }
    binfmt::LibraryRegistry &iosLibraries() { return iosLibs_; }
    binfmt::LibraryRegistry &androidLibraries() { return androidLibs_; }

    xnu::MachIpc &machIpc() { return *machIpc_; }
    xnu::PsynchSubsystem &psynch() { return *psynch_; }
    persona::PersonaManager *personaManager() { return persona_.get(); }

    iokit::IORegistry &ioRegistry() { return *ioRegistry_; }

    gpu::SimGpu &gpu() { return *gpu_; }
    gpu::FramebufferDevice &framebuffer() { return *fbDevice_; }
    android::SurfaceFlinger &surfaceFlinger() { return *flinger_; }
    android::InputSubsystem &input() { return input_; }
    android::Launcher &launcher() { return launcher_; }
    android::DalvikVm &dalvik() { return *dalvik_; }
    /** System-wide DexJit translation cache (valid when dalvik() is). */
    android::TranslationCache &translationCache() { return *jitCache_; }
    android::CiderPress &ciderPress() { return *ciderPress_; }
    ios::Dyld &dyld() { return *dyld_; }
    ios::Launchd *launchd() { return launchd_.get(); }
    const diplomat::GeneratorReport &glesReport() const
    {
        return glesReport_;
    }
    /** Whether the prototype's GL fence bug is compiled in. */
    bool
    fenceBugEnabled() const
    {
        return isCider(opts_.config) && opts_.fenceBug;
    }
    /// @}

    /// @{ Binary installation.
    /**
     * Register native text under @p entry_symbol and write an ELF
     * executable for it at @p path.
     */
    void installElfExecutable(const std::string &path,
                              const std::string &entry_symbol,
                              binfmt::ProgramFn fn,
                              std::vector<std::string> needed = {},
                              std::uint64_t text_pages = 8);

    /** Same for a Mach-O executable with the standard dylib set. */
    void installMachOExecutable(const std::string &path,
                                const std::string &entry_symbol,
                                binfmt::ProgramFn fn,
                                std::vector<std::string> dylibs = {},
                                std::uint64_t text_pages = 8);

    /**
     * Install a decrypted .ipa: unpack it, place the binary in the
     * app sandbox, and create a home-screen shortcut pointing at
     * CiderPress. Encrypted packages are rejected (decrypt first on
     * a jailbroken device — decryptIpa()).
     * @return installed binary path ("" on failure).
     */
    std::string installIpa(const Bytes &ipa);
    /// @}

    /**
     * Exec and run the binary at @p path to completion on the
     * calling host thread.
     * @return the process exit code (127 on exec failure).
     */
    int runProgram(const std::string &path,
                   std::vector<std::string> argv = {});

    /**
     * Run @p path and report the virtual nanoseconds its main thread
     * consumed (benchmark entry point).
     */
    std::uint64_t runProgramTimed(const std::string &path,
                                  std::vector<std::string> argv = {},
                                  int *exit_code = nullptr);

    /** Make a fresh process+env and call @p fn inside it (tests). */
    int runInProcess(const std::string &name, kernel::Persona persona,
                     const std::function<int(binfmt::UserEnv &)> &fn);

  private:
    void setupDevices();
    void setupCiderExtensions();
    void setupAndroidUserSpace();
    void setupIosUserSpace();
    void startServices();

    SystemOptions opts_;
    const hw::DeviceProfile &profile_;
    std::unique_ptr<kernel::Kernel> kernel_;
    binfmt::ProgramRegistry programs_;
    binfmt::LibraryRegistry iosLibs_;
    binfmt::LibraryRegistry androidLibs_;

    std::unique_ptr<xnu::MachIpc> machIpc_;
    std::unique_ptr<xnu::PsynchSubsystem> psynch_;
    std::unique_ptr<persona::PersonaManager> persona_;
    ducttape::SymbolRegistry symbols_;
    ducttape::KernelCxxRuntime cxxRuntime_;

    std::unique_ptr<iokit::IORegistry> ioRegistry_;
    std::unique_ptr<iokit::IOCatalogue> ioCatalogue_;
    iokit::NetFabric netFabric_;

    std::unique_ptr<gpu::SimGpu> gpu_;
    gpu::FramebufferDevice *fbDevice_ = nullptr;
    gpu::GpuDevice *gpuDevice_ = nullptr;
    std::unique_ptr<android::SurfaceFlinger> flinger_;
    android::InputSubsystem input_;
    android::Launcher launcher_;
    std::unique_ptr<android::DalvikVm> dalvik_;
    std::unique_ptr<android::TranslationCache> jitCache_;
    std::unique_ptr<android::CiderPress> ciderPress_;

    std::unique_ptr<ios::Dyld> dyld_;
    std::unique_ptr<ios::Launchd> launchd_;
    diplomat::DiplomatGenerator generator_{androidLibs_};
    diplomat::GeneratorReport glesReport_;
};

} // namespace cider::core

#endif // CIDER_CORE_CIDER_SYSTEM_H
