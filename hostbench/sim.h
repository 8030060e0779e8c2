/**
 * @file
 * One booted CiderIos system as the benchmark drives it: the installed
 * apps, an Android-persona launcher, and a launched iOS app whose open
 * file, pipe, Mach port, TCP-lite stream, signal handler and EAGL
 * context the trap_mix and gl_frames ops reuse.
 *
 * Every op calls only the simulator's public API (Kernel::trap, the
 * Kernel::sys* bodies, execLoad, PersonaManager::setPersona,
 * DalvikVm::run and the GLES/EAGL exports) and wraps each call in a
 * span of the layer it enters.
 */

#ifndef HOSTBENCH_SIM_H
#define HOSTBENCH_SIM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binfmt/dex.h"
#include "core/cider_system.h"
#include "trace.h"

namespace hostbench {

using cider::Bytes;

/** Everything the workloads feed the program, generated from the
 *  seed. The program never sees the seed itself. */
struct Inputs
{
    /// @{ trap_mix
    Bytes fileBlock;    ///< 4 KB written and read back per round
    Bytes pipeToken;    ///< pipe payload (seeded size)
    Bytes inlineBody;   ///< mach_msg body below the OOL threshold
    Bytes oolBody;      ///< mach_msg body past the OOL threshold
    Bytes streamChunk;  ///< 1 KB over the TCP-lite stream
    Bytes vmPattern;    ///< mach_vm_write payload
    std::uint64_t vmBytes = 0;
    std::uint64_t semaphore = 0;
    /// @}
    /// @{ app_launch: the DexLite app sums i*i for i = 1..dexN.
    std::int64_t dexN = 0;
    /// @}
    /// @{ gl_frames: one 3d-simple frame (450 calls, 10 draws, 8000
    /// vertices). stateCalls holds the kind of each state call.
    std::vector<int> stateCalls;
    std::vector<std::int64_t> drawVertices;
    double clearRgba[4] = {0, 0, 0, 1};
    /// @}
    std::uint64_t fleetSeed = 0;
};

Inputs makeInputs(std::uint64_t seed);

/** Outcome of one op. */
struct OpResult
{
    /** An unexpected errno / kern_return or a non-zero exit. */
    bool failed = false;
    /** The program returned wrong data. */
    bool wrong = false;
    /** Virtual ns the op's simulated threads consumed. */
    std::uint64_t virtualNs = 0;
    std::string why;
};

class Sim
{
  public:
    /** Boot, install the apps, launch the iOS session app. */
    Sim(const Inputs &in, Tracer *tr);
    ~Sim();

    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    cider::core::CiderSystem &sys() { return *sys_; }
    /** Set-up failures (the session app would not launch, ...). */
    const std::string &setupError() const { return setupError_; }

    /// @{ The three single-thread ops.
    OpResult trapRound();
    OpResult launchPair();
    OpResult glFrame();
    /// @}

    /** FNV-1a over the framebuffer's front (scanout) buffer. */
    std::uint64_t scanoutChecksum();
    std::uint64_t signalsSeen() const { return signalsSeen_; }
    /** PersonaManager::setPersona calls made directly by trapRound. */
    std::uint64_t directSwitches() const { return directSwitches_; }

  private:
    struct Launch
    {
        cider::kernel::Process *proc = nullptr;
        int pid = -1;
        int rc = 0;
        std::string why;
    };

    void install();
    void openSession();
    /** Connect a fresh TCP-lite stream pair inside the app. */
    bool openStream();
    /** fork the launcher, execLoad @p path in the child, run its entry. */
    Launch launch(const char *path, bool macho);
    /** Exit the launched app and reap it from the launcher. */
    bool exitAndReap(Launch &l, int *status);

    /// @{ App mains (run on the launched process's thread).
    int forkerMain(cider::binfmt::UserEnv &env);
    int dexMain(cider::binfmt::UserEnv &env);
    /** The Mach-O entry reached main: close the dyld span. */
    void mainStarted();
    /// @}

    cider::kernel::SyscallResult bsd(int nr, cider::kernel::SyscallArgs a);
    cider::kernel::SyscallResult mach(int nr, cider::kernel::SyscallArgs a);
    cider::binfmt::Value glCall(const cider::binfmt::Symbol *sym,
                                std::vector<cider::binfmt::Value> args);

    const Inputs &in_;
    Tracer *tr_;
    std::unique_ptr<cider::core::CiderSystem> sys_;
    std::string setupError_;
    cider::kernel::Process *launcher_ = nullptr;
    cider::kernel::Process *app_ = nullptr;
    std::size_t dyldToken_ = 0;
    cider::binfmt::DexFile dex_;
    std::int64_t dexExpect_ = 0;

    /// @{ Session state of the iOS app.
    int fileFd_ = -1;
    int pipeFds_[2] = {-1, -1};
    int streamClient_ = -1;
    int streamServer_ = -1;
    unsigned streams_ = 0;
    std::uint64_t streamBytes_ = 0; ///< sent on the current connection
    std::uint32_t port_ = 0;
    std::uint64_t signalsSeen_ = 0;
    std::uint64_t directSwitches_ = 0;
    std::int64_t eaglCtx_ = 0;
    const cider::binfmt::Symbol *eaglPresent_ = nullptr;
    std::vector<const cider::binfmt::Symbol *> glState_; ///< by kind
    const cider::binfmt::Symbol *glDraw_ = nullptr;
    const cider::binfmt::Symbol *glFlush_ = nullptr;
    const cider::binfmt::Symbol *glClearColor_ = nullptr;
    const cider::binfmt::Symbol *glClear_ = nullptr;
    /// @}
};

} // namespace hostbench

#endif // HOSTBENCH_SIM_H
