/**
 * @file
 * The simulated domestic (Linux-like) kernel.
 *
 * The Kernel owns the process table, VFS, device registry, and the
 * trap path. Cider's extensions attach through small seams:
 *
 *  - TrapDispatcher: the vanilla dispatcher serves only the Linux
 *    syscall table; the persona layer replaces it with a
 *    multi-persona dispatcher serving all XNU trap classes too.
 *  - BinaryLoader: binfmt handlers (ELF, Mach-O) register here; the
 *    Mach-O loader tags the loading thread with the iOS persona.
 *  - SignalDeliveryHook: the persona layer translates signal
 *    numbering/layout for foreign-persona receivers.
 *  - fork/exec hooks: duct-taped subsystems (Mach IPC) initialise
 *    per-process state when processes are created or replaced.
 */

#ifndef CIDER_KERNEL_KERNEL_H
#define CIDER_KERNEL_KERNEL_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hw/device_profile.h"
#include "kernel/device.h"
#include "kernel/net.h"
#include "kernel/percpu.h"
#include "kernel/process.h"
#include "kernel/trap_stats.h"
#include "kernel/types.h"
#include "kernel/unix_socket.h"
#include "kernel/vfs.h"

namespace cider::kernel {

class Kernel;
struct TrapContext;

/** stat(2) result as handed to user space. */
struct StatBuf
{
    std::uint64_t size = 0;
    InodeType type = InodeType::Regular;
};

/**
 * A syscall implementation: a raw function pointer plus one user-data
 * word (the subsystem the handler routes into). Captureless lambdas
 * convert to this directly, so every handler dispatches with one
 * indirect call.
 */
using SyscallFn = SyscallResult (*)(TrapContext &, void *user);

/**
 * One syscall dispatch table. Cider maintains one or more of these
 * per persona and switches among them by the calling thread's persona
 * and trap class (paper section 4.1).
 *
 * Storage is a flat dense vector indexed by (nr - base), so lookup is
 * O(1): one bounds check and one load. The table grows to cover the
 * registered number range; Linux/XNU syscall numbers are small and
 * Mach trap numbers are small negatives, so the span stays tiny.
 */
class SyscallTable
{
  public:
    static constexpr std::uint32_t kNoStatSlot = ~std::uint32_t{0};

    struct Entry
    {
        const char *name = nullptr; ///< static registration string
        SyscallFn fn = nullptr;
        void *user = nullptr;
        /** This entry's counter cell in every TrapStats shard, given
         *  when its table is attached (kNoStatSlot before). */
        std::uint32_t statSlot = kNoStatSlot;
        /**
         * True when the handler's success value is a kern_return_t
         * (Mach convention: the code rides in the return register).
         * Traps returning plain values there — a tid, a port name, a
         * count — leave this false so layers interpreting the result
         * (e.g. the OOM-kill heuristic matching
         * KERN_RESOURCE_SHORTAGE) never misread them.
         */
        bool returnsKr = false;

        bool empty() const { return fn == nullptr; }

        SyscallResult call(TrapContext &ctx) const { return fn(ctx, user); }
    };

    explicit SyscallTable(std::string name) : name_(std::move(name)) {}

    /** Register @p fn with its user word. Panics on duplicate @p nr.
     *  Returns the entry so registrars can tag it (returnsKr). */
    Entry &set(int nr, const char *sys_name, SyscallFn fn,
               void *user = nullptr);

    /** O(1) lookup; null when @p nr has no handler. */
    const Entry *
    find(int nr) const
    {
        // Unsigned wrap makes one compare cover both range ends.
        auto idx = static_cast<std::size_t>(
            static_cast<long long>(nr) - base_);
        if (idx >= dense_.size())
            return nullptr;
        const Entry &e = dense_[idx];
        return e.empty() ? nullptr : &e;
    }

    const char *sysName(int nr) const;
    const std::string &name() const { return name_; }
    /** Number of registered handlers (not the dense span). */
    std::size_t size() const { return count_; }
    /** Registered syscall numbers in ascending order. */
    std::vector<int> registeredNumbers() const;

  private:
    friend class TrapStats;

    Entry &slotFor(int nr, const char *sys_name);

    std::string name_;
    int base_ = 0;
    std::size_t count_ = 0;
    std::vector<Entry> dense_;
    /** The TrapStats this table is attached to (null before). */
    TrapStats *stats_ = nullptr;
};

/** Pluggable trap dispatcher (vanilla vs. Cider multi-persona). */
class TrapDispatcher
{
  public:
    virtual ~TrapDispatcher() = default;
    virtual const char *name() const = 0;
    /** Resolve ctx.table / ctx.entry and invoke the handler. */
    virtual SyscallResult dispatch(TrapContext &ctx) = 0;
};

/** A binfmt handler in the kernel's loader chain. */
class BinaryLoader
{
  public:
    virtual ~BinaryLoader() = default;
    virtual const char *name() const = 0;

    /** Quick magic-number check. */
    virtual bool probe(const Bytes &blob) const = 0;

    /**
     * Replace @p proc's image with the binary in @p blob and prepare
     * @p t to run it (set persona, mappings, entry).
     */
    virtual SyscallResult load(Kernel &k, Thread &t, const Bytes &blob,
                               const std::string &path,
                               const std::vector<std::string> &argv) = 0;
};

class Kernel
{
  public:
    explicit Kernel(const hw::DeviceProfile &profile);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    const hw::DeviceProfile &profile() const { return profile_; }
    Vfs &vfs() { return vfs_; }
    DeviceRegistry &devices() { return devices_; }
    /** Register a ProcNode named @p name and link it in at
     *  /proc/cider/<name>. */
    void addProcNode(const std::string &name, ProcNode::Render render);
    UnixSocketRegistry &unixSockets() { return unixRegistry_; }
    /** The AF_INET stack (TCP-lite/UDP-lite over I/O Kit NICs). */
    NetStack &net() { return net_; }
    const NetStack &net() const { return net_; }

    /// @{ Process management. The table has its own lock (procMu_) so
    /// concurrent host threads can fork/look up without serializing
    /// through the rest of the kernel.
    Process &createProcess(const std::string &name,
                           Persona persona = Persona::Android,
                           Process *parent = nullptr);
    Process *findProcess(Pid pid) const;
    std::size_t processCount() const;
    /** Visit every live process under the table lock (used by
     *  /proc/cider/vm; keep @p fn non-blocking). */
    void forEachProcess(const std::function<void(Process &)> &fn) const;
    /**
     * Init-style reap: release the table entry of a Zombie process,
     * destroying the Process object (address space, fd table, Mach
     * IPC space, threads). The caller must hold no references to the
     * process. Returns false when @p pid is unknown (a wait reaped it
     * already) or still Running — a running process is never torn
     * down out from under its host thread.
     */
    bool reapProcess(Pid pid);
    /// @}

    /// @{ Virtual memory.
    /** System-wide VM state: shared regions, cost tables, counters. */
    VmSubsystem &vm() { return *vm_; }
    const VmSubsystem &vm() const { return *vm_; }
    /// @}

    /** The simulated machine's CPU array (profile.cpuCores slots). */
    PerCpu &percpu() { return percpu_; }
    const PerCpu &percpu() const { return percpu_; }

    /// @{ Trap path.
    /**
     * Kernel entry from user space. Charges the hardware trap cost
     * and routes through the installed dispatcher; delivers pending
     * asynchronous signals on the way out, as a real kernel does.
     * The caller lends @p args, and the strings and buffers it
     * points at, until the trap returns.
     */
    SyscallResult trap(Thread &t, TrapClass cls, int nr,
                       const SyscallArgs &args);

    /** Install @p d; returns the dispatcher it replaces, so a wrapper
     *  can keep it and forward to it. */
    std::unique_ptr<TrapDispatcher>
    setDispatcher(std::unique_ptr<TrapDispatcher> d);
    TrapDispatcher &dispatcher() { return *dispatcher_; }
    SyscallTable &linuxTable() { return linuxTable_; }

    /** Per-syscall counters, latency histograms, and the trap trace
     *  ring (also readable from /proc/cider/trapstats). */
    TrapStats &trapStats() { return trapStats_; }
    const TrapStats &trapStats() const { return trapStats_; }

    /**
     * Graceful degradation under memory pressure: when enabled, a
     * main-thread trap that fails for want of memory (ENOMEM, or a
     * Mach trap reporting KERN_RESOURCE_SHORTAGE) SIGKILLs the
     * faulting process — terminate with 128+SIGKILL, SIGCHLD to the
     * parent, unwind via ProcessExit — instead of letting the app
     * limp on. The rest of the system keeps running; the parent reaps
     * the corpse with waitpid. Off by default.
     */
    void setOomKillEnabled(bool on) { oomKillEnabled_ = on; }
    /// @}

    /// @{ Extension seams.
    void registerLoader(std::unique_ptr<BinaryLoader> loader);
    void setSignalHook(std::unique_ptr<SignalDeliveryHook> hook);

    using ProcessHook = std::function<void(Process &parent, Process &child)>;
    using ExecHook = std::function<void(Process &proc)>;
    /** Called after fork copies kernel state into the child. */
    void addForkHook(ProcessHook hook) { forkHooks_.push_back(hook); }
    /** Called when exec replaces a process image (before load). */
    void addExecHook(ExecHook hook) { execHooks_.push_back(hook); }
    /**
     * Called when a process image is unloaded: on exec teardown of
     * the old image and on process termination. Modules drop state
     * derived from the image (e.g. the Dalvik translation cache).
     */
    void addUnloadHook(ExecHook hook) { unloadHooks_.push_back(hook); }
    /// @}

    /// @{ Typed syscall implementations (the "Linux" bodies).
    SyscallResult sysOpen(Thread &t, std::string_view path, int flags);
    SyscallResult sysClose(Thread &t, Fd fd);
    SyscallResult sysRead(Thread &t, Fd fd, Bytes &out, std::size_t n);
    SyscallResult sysWrite(Thread &t, Fd fd, const Bytes &data);
    SyscallResult sysDup(Thread &t, Fd fd);
    SyscallResult sysPipe(Thread &t, Fd out_fds[2]);
    SyscallResult sysMkdir(Thread &t, const std::string &path);
    SyscallResult sysUnlink(Thread &t, const std::string &path);
    SyscallResult sysRmdir(Thread &t, const std::string &path);
    SyscallResult sysGetpid(Thread &t);
    SyscallResult sysGetppid(Thread &t);
    SyscallResult sysLseek(Thread &t, Fd fd, std::int64_t offset,
                           int whence);
    SyscallResult sysStat(Thread &t, const std::string &path,
                          StatBuf *out);
    SyscallResult sysRename(Thread &t, const std::string &from,
                            const std::string &to);
    SyscallResult sysDup2(Thread &t, Fd fd, Fd new_fd);
    SyscallResult sysIoctl(Thread &t, Fd fd, std::uint64_t req, void *arg);
    SyscallResult sysNull(Thread &t);

    SyscallResult sysSelect(Thread &t, const std::vector<Fd> &read_fds,
                            const std::vector<Fd> &write_fds,
                            std::vector<Fd> &ready);

    SyscallResult sysSocket(Thread &t);
    SyscallResult sysSocketpair(Thread &t, Fd out_fds[2]);
    SyscallResult sysBind(Thread &t, Fd fd, const std::string &path);
    SyscallResult sysListen(Thread &t, Fd fd, int backlog);
    SyscallResult sysAccept(Thread &t, Fd fd);
    SyscallResult sysConnect(Thread &t, Fd fd, const std::string &path);

    /// @{ AF_INET (socket/bind/connect dispatch on the fd's socket
    /// kind; sysListen/sysAccept above serve both families).
    SyscallResult sysNetSocket(Thread &t, int type); // 1=stream 2=dgram
    SyscallResult sysNetBind(Thread &t, Fd fd, NetAddr addr,
                             NetPort port);
    SyscallResult sysNetConnect(Thread &t, Fd fd, NetAddr addr,
                                NetPort port);
    SyscallResult sysNetSendTo(Thread &t, Fd fd, NetAddr addr,
                               NetPort port, const Bytes &data);
    SyscallResult sysNetRecvFrom(Thread &t, Fd fd, Bytes &out,
                                 std::size_t n, NetAddr *src_addr,
                                 NetPort *src_port);
    SyscallResult sysNetShutdown(Thread &t, Fd fd, int how);
    /// @}

    SyscallResult sysSigaction(Thread &t, int linux_signo,
                               const SignalAction &action);
    SyscallResult sysKill(Thread &t, Pid pid, int linux_signo);

    /**
     * fork(2). The child's main thread inherits the calling thread's
     * persona; kernel state (fd table, mappings, dispositions) is
     * copied with page-table duplication charged to the caller.
     * @p child_body is the child's continuation; with @p run_now the
     * child runs to completion on the calling host thread before
     * fork returns (virtual time still attributes the child's work to
     * the child's own clock).
     */
    SyscallResult sysFork(Thread &t, EntryFn child_body, bool run_now = true);

    /** execve(2): never returns on success (throws ProcessExit). */
    SyscallResult sysExecve(Thread &t, const std::string &path,
                            const std::vector<std::string> &argv);

    /**
     * The load half of execve: tear down the old image, probe the
     * binfmt loaders, install the new image, and run the exec hooks —
     * everything sysExecve does *except* running the entry point.
     * Session drivers (FleetSoak, CiderPress-style hosts) use this to
     * materialise a launched process whose image then runs in slices
     * on pool workers instead of to completion on the calling host
     * thread. On failure the process is left imageless, exactly as a
     * failed execve leaves it.
     */
    SyscallResult execLoad(Thread &t, const std::string &path,
                           const std::vector<std::string> &argv);

    [[noreturn]] void sysExit(Thread &t, int code);

    /** Wait for child @p pid to exit, then reap it (reapProcess): its
     *  Process is destroyed before the wait returns, so the caller
     *  must not use it afterwards. */
    SyscallResult sysWaitpid(Thread &t, Pid pid, int *status);
    /// @}

    /**
     * Run @p proc's loaded image on the calling host thread and
     * terminate the process with its result.
     */
    int runProcess(Process &proc);

    /**
     * Start @p fn as a new simulated thread of @p proc on a dedicated
     * host thread (used by long-running services).
     */
    std::thread startThread(Process &proc, Persona persona,
                            std::function<void(Thread &)> fn);

    /** Deliver (or queue) a signal to a specific thread. */
    void deliverSignal(Thread &target, SigInfo info);

    /** Run any queued signals for @p t (trap-exit path). */
    void checkPendingSignals(Thread &t);

  private:
    /** Fill linuxTable_ with the domestic implementations
     *  (linux_syscalls.cc). */
    void registerLinuxSyscalls();

    /** Fire the unload hooks for @p proc's current image. */
    void notifyUnload(Process &proc);

    /**
     * SIGCHLD to the parent of a freshly-terminated @p proc (no-op for
     * orphans or dead parents). Every exit path — sysExit, the OOM
     * killer, signal default-terminate — owes the parent this.
     */
    void notifyParentExit(Process &proc);

    const hw::DeviceProfile &profile_;
    std::unique_ptr<VmSubsystem> vm_;
    PerCpu percpu_;
    Vfs vfs_;
    DeviceRegistry devices_;
    UnixSocketRegistry unixRegistry_;
    NetStack net_;
    SyscallTable linuxTable_;
    TrapStats trapStats_;
    std::unique_ptr<TrapDispatcher> dispatcher_;
    std::unique_ptr<SignalDeliveryHook> signalHook_;
    std::vector<std::unique_ptr<BinaryLoader>> loaders_;
    std::vector<ProcessHook> forkHooks_;
    std::vector<ExecHook> execHooks_;
    std::vector<ExecHook> unloadHooks_;
    /** Guards processes_ and nextPid_ only; Process objects carry
     *  their own synchronisation (Process::mu_). */
    mutable std::mutex procMu_;
    std::map<Pid, std::unique_ptr<Process>> processes_;
    Pid nextPid_ = 1;
    bool oomKillEnabled_ = false;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_KERNEL_H
