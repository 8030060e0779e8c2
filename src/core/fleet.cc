/**
 * @file
 * FleetSoak implementation. See fleet.h for the mode overview and
 * DESIGN.md §14 for the architecture notes.
 */

#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>

#include "android/dalvik.h"
#include "android/dexjit.h"
#include "android/egl.h"
#include "base/cost_clock.h"
#include "base/rng.h"
#include "binfmt/dex.h"
#include "ducttape/xnu_api.h"
#include "ios/eagl.h"
#include "kernel/fault_rail.h"
#include "kernel/file.h"
#include "kernel/sched_rail.h"
#include "persona/persona.h"
#include "xnu/kern_return.h"
#include "xnu/mach_traps.h"

namespace cider::core {

/**
 * The latest report published on one kernel. That kernel's
 * /proc/cider/fleet node and every FleetSoak on it share the board,
 * so a report outlives the soak that published it.
 */
struct FleetBoard
{
    std::mutex mu;
    std::string text;
};

namespace {

using kernel::FaultRail;
using kernel::Persona;
using kernel::Process;
using kernel::ProcessExit;
using kernel::SyscallResult;
using kernel::Thread;
using kernel::ThreadScope;
using kernel::TrapClass;
using kernel::makeArgs;

/** The storm catalog (same sites the chaos soak arms). */
const char *const kFleetSites[] = {
    "zone.alloc",      "kalloc.alloc",     "vfs.lookup",
    "vfs.create",      "mach.port.alloc",  "mach.name.alloc",
    "mach.right.copyout", "mach.msg.send", "mach.msg.receive",
    "binfmt.elf",      "binfmt.macho",     "psynch.wait",
    "signal.deliver",  "dexjit.translate", "vm.allocate",
    "vm.fault",        "nic.drop",         "nic.reorder",
};

/** Trip probability of every storm site. */
constexpr double kStormProbability = 0.02;

/// @{ Backpressure: admission defers while the executor queue or the
/// Mach port zone sit above these high-water marks.
constexpr std::uint64_t kQueueHighWater = 4096;
constexpr std::uint64_t kPortZoneHighWater = 1u << 20;
/// @}

/// @{ Bounded retry on transient failures; the backoff is exponential
/// in virtual time: kRetryBackoffNs << attempt.
constexpr int kRetryLimit = 4;
constexpr std::uint64_t kRetryBackoffNs = 2'000;
/// @}

const char *const kIosAppPath = "/data/fleet_app_ios";
const char *const kAndroidAppPath = "/data/fleet_app_android";

/** The app body is empty: all the interesting work — dyld bootstrap,
 *  dylib mapping, persona tagging — happens inside the loader-wrapped
 *  entry, and the session engine drives the workload in steps. */
int
fleetAppMain(binfmt::UserEnv &)
{
    return 0;
}

/** Idempotent: both executables installed once per system. */
void
ensureInstalled(CiderSystem &sys)
{
    if (!sys.programs().find("fleet.app.ios"))
        sys.installMachOExecutable(kIosAppPath, "fleet.app.ios",
                                   fleetAppMain);
    if (!sys.programs().find("fleet.app.android"))
        sys.installElfExecutable(kAndroidAppPath, "fleet.app.android",
                                 fleetAppMain);
}

/** Sum 1..n loop, same shape the chaos soak JITs. sum(100) == 5050. */
void
buildSumDex(binfmt::DexFile &file)
{
    binfmt::DexAssembler as(file, "sum", 2);
    as.constI(0).store(1);
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

/**
 * Transient vs permanent classification (the retry policy's heart):
 * ENOMEM/EAGAIN for a failed call; resource shortage, no space and
 * timeouts for a Mach trap's kern_return.
 */
bool
transient(const SyscallResult &r)
{
    if (!r.ok())
        return r.err == kernel::lnx::NOMEM || r.err == kernel::lnx::AGAIN;
    std::int64_t kr = r.value;
    return kr == xnu::KERN_RESOURCE_SHORTAGE || kr == xnu::KERN_NO_SPACE ||
           kr == xnu::KERN_OPERATION_TIMED_OUT ||
           kr == xnu::MACH_SEND_TIMED_OUT || kr == xnu::MACH_RCV_TIMED_OUT ||
           kr == xnu::MACH_SEND_NO_BUFFER;
}

/**
 * RAII diplomatic persona switch: Mach traps only dispatch from the
 * iOS persona, so Android sessions hop personas around their Mach
 * segments exactly the way diplomatic functions do — which also makes
 * the fleet hammer set_persona concurrently on pool workers. Restores
 * on unwind (storm kills land mid-segment).
 */
class PersonaGuard
{
  public:
    /** No-op when @p pm is null (a vanilla kernel has no personas). */
    PersonaGuard(persona::PersonaManager *pm, Thread &t, Persona want)
        : pm_(pm), t_(t), prev_(t.persona()),
          switched_(pm != nullptr && prev_ != want)
    {
        if (switched_)
            pm_->setPersona(t_, want);
    }

    ~PersonaGuard()
    {
        if (switched_)
            pm_->setPersona(t_, prev_);
    }

    PersonaGuard(const PersonaGuard &) = delete;
    PersonaGuard &operator=(const PersonaGuard &) = delete;

  private:
    persona::PersonaManager *pm_;
    Thread &t_;
    Persona prev_;
    bool switched_;
};

/** The fleet node's render function. A named type, so a later
 *  FleetSoak on the same kernel finds the board through the node. */
struct FleetNodeText
{
    std::shared_ptr<FleetBoard> board;

    std::string
    operator()() const
    {
        std::lock_guard<std::mutex> lock(board->mu);
        return board->text.empty() ? "fleet: no soak has published yet\n"
                                   : board->text;
    }
};

std::string
buildReportText(const FleetReport &r, const char *mode)
{
    char line[256];
    std::string text = std::string("FleetSoak report (") + mode + ")\n";
    std::snprintf(line, sizeof line,
                  "sessions: started %zu completed %zu killed %zu "
                  "failed %zu peak-live %zu\n",
                  r.sessionsStarted, r.sessionsCompleted, r.sessionsKilled,
                  r.sessionsFailed, r.peakLive);
    text += line;
    std::snprintf(line, sizeof line,
                  "time: %" PRIu64 " waves, %.1f ms virtual, %.1f ms host, "
                  "%" PRIu64 " steals\n",
                  r.waves, static_cast<double>(r.virtualDurationNs) / 1e6,
                  r.hostMs, r.steals);
    text += line;
    std::snprintf(line, sizeof line,
                  "robustness: deferred %" PRIu64 " retried %" PRIu64
                  " exhausted %" PRIu64 " permanent %" PRIu64
                  " wd-warn %zu wd-kill %zu chld %" PRIu64 " trips %" PRIu64
                  "\n",
                  r.admissionDeferred, r.retriesTransient, r.retriesExhausted,
                  r.permanentErrors, r.watchdogWarnings, r.watchdogKills,
                  r.chldReceived, r.faultTrips);
    text += line;
    for (const auto &[name, st] : r.subsystems) {
        std::snprintf(line, sizeof line,
                      "  %-8s ops %8" PRIu64 "  p50 %10" PRIu64
                      "ns  p99 %10" PRIu64 "ns  %10.1f ops/vsec\n",
                      name.c_str(), st.ops, st.p50(), st.p99(),
                      r.opsPerVirtualSec(name));
        text += line;
    }
    if (!r.railSeries.empty()) {
        std::snprintf(line, sizeof line,
                      "rail: %s, %zu guests\n",
                      r.railDeadlocked   ? "DEADLOCKED"
                      : r.railCompleted  ? "completed"
                                         : "aborted",
                      r.railSeries.size());
        text += line;
    }
    text += std::string("leak audit: ") +
            (r.auditClean ? "CLEAN" : ("DIRTY " + r.auditDetail)) + "\n";
    std::size_t shown = 0;
    for (const std::string &trace : r.failureTraces) {
        if (++shown > 16) {
            text += "  ... (more traces elided)\n";
            break;
        }
        text += "  trace: " + trace + "\n";
    }
    return text;
}

/**
 * The soak engine: owns the session table and the chain of wired
 * mailboxes. One engine instance per run; FleetSoak is the thin
 * durable facade.
 */
class Engine
{
  public:
    Engine(CiderSystem &sys, const FleetOptions &opts)
        : sys_(sys), opts_(opts), k_(sys.kernel())
    {}

    FleetReport runScale();
    FleetReport runRailed(std::uint64_t seed, std::size_t n);

  private:
    enum class Phase
    {
        Launching,
        Foreground,
        Background,
    };

    /** One app session. It is over once its process has exited (and
     *  then been reaped: proc is reset to null). */
    struct Session
    {
        std::size_t id = 0;
        unsigned vcpu = 0;
        Persona persona = Persona::Android;
        Process *proc = nullptr;
        Rng rng{1};
        Phase phase = Phase::Launching;
        int round = 0;
        xnu::mach_port_name_t selfPort = xnu::MACH_PORT_NULL;
        xnu::mach_port_name_t peerSend = xnu::MACH_PORT_NULL;
        kernel::Pid peerPid = -1;
        bool wired = false;
        std::string dir;
        std::unique_ptr<binfmt::DexFile> dex;
        std::unique_ptr<android::TranslationCache> jitCache;
        std::unique_ptr<android::DalvikVm> dalvik;
        /** NetBurst: the session's bound datagram mailbox (-1 when
         *  the mix does not include net or bind failed). */
        kernel::Fd dgramFd = -1;
        std::atomic<std::uint64_t> pokesSeen{0};
        int warns = 0;
        /** Virtual ns the last step consumed (watchdog input). Written
         *  by the step job, read post-wave — never concurrently. */
        std::uint64_t lastStepNs = 0;
        std::map<std::string, SubsystemStats> stats;
    };

    /** True while the session's process runs: launched or launching,
     *  not yet exited, killed or reaped. */
    static bool
    live(const Session &s)
    {
        return s.proc && s.proc->state() == Process::State::Running;
    }

    /// @{ Session state machine (pool workers, rail guests, or inline).
    std::uint64_t step(Session &s);
    void doLaunch(Session &s, Thread &t);
    void postLaunch(Session &s, Thread &t);
    void doRound(Session &s, Thread &t);
    void doIdle(Session &s, Thread &t);
    void glBurst(Session &s, Thread &t);
    void netBurst(Session &s, Thread &t);
    void dropGlLayers(binfmt::UserEnv &env);
    /// @}

    /// @{ Session lifecycle around the state machine. Never run
    /// concurrently: they are called between waves or before a rail
    /// episode, or by a rail guest while the rail runs it alone.
    Session &admit(std::size_t id, Persona persona);
    void wire(Session &s);
    void drive(Session &s);
    void warmUp(Persona persona);
    /// @}

    /// @{ Driver-side passes (between waves; no jobs in flight).
    void watchdog(Thread &initT);
    void killStorm(Thread &initT, Rng &rng);
    std::size_t reapPass(Thread &initT);
    void cleanupSessionDir(Thread &t, const std::string &dir);
    /// @}

    FleetReport soak(std::uint64_t stormSeed,
                     const std::function<void(Thread &initT)> &body);
    void armStorm(std::uint64_t seed_base);
    void disarmStorm();
    void foldCounters();
    void mergeStats(Session &s);

    /**
     * Run @p attempt, retrying transient failures up to kRetryLimit
     * times with virtual-time backoff; exhaustion and permanent
     * failures are counted. @p attempt rebuilds its arguments on every
     * call — msgSend consumes its message, so they cannot be reused.
     */
    template <typename Attempt>
    SyscallResult
    retry(Attempt &&attempt)
    {
        for (int n = 0;; ++n) {
            SyscallResult r = attempt();
            if (!transient(r)) {
                // A send landing on a dead port is the normal fate of
                // fan-out racing a peer's exit, not an error.
                if (!r.ok() || (r.value != xnu::KERN_SUCCESS &&
                                r.value != xnu::MACH_SEND_INVALID_DEST))
                    permanentErrors_.fetch_add(1, std::memory_order_relaxed);
                return r;
            }
            if (n >= kRetryLimit) {
                retriesExhausted_.fetch_add(1, std::memory_order_relaxed);
                return r;
            }
            retriesTransient_.fetch_add(1, std::memory_order_relaxed);
            charge(kRetryBackoffNs << n);
        }
    }

    void
    sample(Session &s, const char *name, std::uint64_t ns)
    {
        SubsystemStats &st = s.stats[name];
        st.samples.push_back(ns);
        ++st.ops;
        st.virtualNs += ns;
    }

    CiderSystem &sys_;
    FleetOptions opts_;
    kernel::Kernel &k_;
    FleetReport report_;
    std::vector<std::unique_ptr<Session>> sessions_;
    Process *init_ = nullptr;
    /** The most recently wired session: the fan-out peer of the next. */
    Session *chainTail_ = nullptr;
    std::atomic<std::uint64_t> retriesTransient_{0};
    std::atomic<std::uint64_t> retriesExhausted_{0};
    std::atomic<std::uint64_t> permanentErrors_{0};
    std::atomic<std::uint64_t> chld_{0};
    std::atomic<std::uint64_t> dexWrong_{0};
};

std::uint64_t
Engine::step(Session &s)
{
    if (!live(s))
        return 0;
    Thread &t = s.proc->mainThread();
    ThreadScope scope(t);
    std::uint64_t start = t.clock().now();
    try {
        switch (s.phase) {
        case Phase::Launching:
            doLaunch(s, t);
            break;
        case Phase::Foreground:
            doRound(s, t);
            break;
        case Phase::Background:
            doIdle(s, t);
            break;
        }
    } catch (const ProcessExit &) {
        // Clean unwind of sysExit / the OOM killer / a storm-delivered
        // fatal signal; the reap pass classifies by exit code. Only
        // ProcessExit is caught: a rail guest's SchedRailAbort must
        // reach the rail's guest wrapper or deadlock recovery breaks.
    }
    std::uint64_t consumed = t.clock().now() - start;
    s.lastStepNs = consumed;
    return consumed;
}

void
Engine::doLaunch(Session &s, Thread &t)
{
    std::uint64_t start = t.clock().now();
    const char *path =
        s.persona == Persona::Ios ? kIosAppPath : kAndroidAppPath;
    SyscallResult r = retry([&] { return k_.execLoad(t, path, {path}); });
    if (!r.ok()) // 126: retries exhausted, 127: permanent failure
        k_.sysExit(t, transient(r) ? 126 : 127); // throws ProcessExit
    // The loader wrapped dyld/linker bootstrap into the entry; the app
    // body returns 0 and the process stays Running, fully booted.
    if (s.proc->image().entry)
        s.proc->image().entry(t);
    postLaunch(s, t);
    s.phase = Phase::Foreground;
    sample(s, "launch", t.clock().now() - start);
}

void
Engine::postLaunch(Session &s, Thread &t)
{
    s.dir = "/data/fleet_s" + std::to_string(s.proc->pid());

    // Peer pokes land here; the handler only bumps an atomic, so a
    // queued delivery draining at any later trap boundary is safe.
    kernel::SignalAction act;
    act.kind = kernel::SignalAction::Kind::Handler;
    std::atomic<std::uint64_t> *pokes = &s.pokesSeen;
    act.fn = [pokes](int, const kernel::SigInfo &) {
        pokes->fetch_add(1, std::memory_order_relaxed);
    };
    k_.sysSigaction(t, kernel::lsig::USR1, act);

    // The session mailbox: the next session wired gets a send right
    // to it (wire), forming a cross-persona fan-out chain.
    PersonaGuard diplomat(sys_.personaManager(), t, Persona::Ios);
    xnu::mach_port_name_t port = xnu::MACH_PORT_NULL;
    SyscallResult r = retry([&] {
        return k_.trap(
            t, TrapClass::XnuMach, xnu::machno::PORT_ALLOCATE,
            makeArgs(static_cast<std::uint64_t>(xnu::PortRight::Receive),
                     static_cast<void *>(&port)));
    });
    if (r.ok() && r.value == xnu::KERN_SUCCESS)
        s.selfPort = port;

    // Private Dalvik/JIT state: per-session translation cache so hot
    // sessions JIT independently.
    s.dex = std::make_unique<binfmt::DexFile>();
    buildSumDex(*s.dex);
    s.jitCache = std::make_unique<android::TranslationCache>();
    s.dalvik = std::make_unique<android::DalvikVm>(sys_.profile());
    s.dalvik->setTranslationCache(s.jitCache.get());
    s.dalvik->setJitEnabled(true);
    s.dalvik->setJitWarmup(0);

    // NetBurst mailbox: a nonblocking datagram socket on a pid-derived
    // port; fan-out peers poke it (wire gives them the pid).
    if (opts_.netBurst) {
        SyscallResult dr = k_.sysNetSocket(t, 2);
        if (dr.ok()) {
            s.dgramFd = static_cast<kernel::Fd>(dr.value);
            int one = 1;
            k_.sysIoctl(t, s.dgramFd, kernel::netio::FIONBIO, &one);
            auto port = static_cast<kernel::NetPort>(
                40000 + s.proc->pid() % 20000);
            if (!k_.sysNetBind(t, s.dgramFd, 0, port).ok()) {
                k_.sysClose(t, s.dgramFd);
                s.dgramFd = -1;
            }
        }
    }
}

void
Engine::doRound(Session &s, Thread &t)
{
    // --- VFS churn in a private single-level directory.
    std::uint64_t t0 = t.clock().now();
    k_.sysMkdir(t, s.dir);
    int files = static_cast<int>(2 + s.rng.below(3));
    for (int i = 0; i < files; ++i) {
        std::string path = s.dir + "/f" + std::to_string(i);
        SyscallResult fd = k_.sysOpen(
            t, path, kernel::oflag::WRONLY | kernel::oflag::CREAT);
        if (fd.ok()) {
            k_.sysWrite(t, static_cast<kernel::Fd>(fd.value),
                        Bytes{1, 2, 3, 4, 5, 6, 7, 8});
            k_.sysClose(t, static_cast<kernel::Fd>(fd.value));
        }
        SyscallResult rd = k_.sysOpen(t, path, kernel::oflag::RDONLY);
        if (rd.ok()) {
            Bytes buf;
            k_.sysRead(t, static_cast<kernel::Fd>(rd.value), buf, 8);
            k_.sysClose(t, static_cast<kernel::Fd>(rd.value));
        }
        k_.sysUnlink(t, path);
    }
    k_.sysRmdir(t, s.dir);
    sample(s, "vfs", t.clock().now() - t0);

    // --- Mach segments (IPC, VM, psynch) form a diplomatic block:
    // Android sessions hop to the iOS persona for their duration (Mach
    // traps only dispatch there), so the fleet hammers set_persona
    // concurrently from every pool worker.
    {
        PersonaGuard diplomat(sys_.personaManager(), t, Persona::Ios);

        // Mach IPC fan-out: poke the peer's mailbox, drain our own.
        t0 = t.clock().now();
        if (s.peerSend != xnu::MACH_PORT_NULL) {
            xnu::MachMessage msg;
            SyscallResult sr = retry([&] {
                msg = xnu::MachMessage{};
                msg.header.remotePort = s.peerSend;
                msg.header.remoteDisposition =
                    xnu::MsgDisposition::CopySend;
                msg.header.msgId = 7000 + s.round;
                xnu::OolDescriptor ool;
                ool.data = Bytes(static_cast<std::size_t>(256),
                                 static_cast<std::uint8_t>(s.round));
                msg.ool.push_back(std::move(ool));
                return k_.trap(t, TrapClass::XnuMach, xnu::machno::MACH_MSG,
                               makeArgs(static_cast<void *>(&msg),
                                        xnu::machmsg::SEND, std::uint64_t{0},
                                        static_cast<void *>(nullptr)));
            });
            if (sr.ok() && sr.value == xnu::MACH_SEND_INVALID_DEST) {
                // The peer exited; drop the dead right and go quiet.
                k_.trap(t, TrapClass::XnuMach,
                        xnu::machno::PORT_DEALLOCATE,
                        makeArgs(static_cast<std::uint64_t>(s.peerSend)));
                s.peerSend = xnu::MACH_PORT_NULL;
                s.peerPid = -1;
            }
        }
        if (s.selfPort != xnu::MACH_PORT_NULL) {
            for (int i = 0; i < 4; ++i) {
                xnu::MachMessage rcv;
                // Zero timeout = poll: an empty mailbox never blocks.
                SyscallResult r = k_.trap(
                    t, TrapClass::XnuMach, xnu::machno::MACH_MSG,
                    makeArgs(static_cast<void *>(nullptr),
                             xnu::machmsg::RCV | xnu::machmsg::RCV_TIMEOUT,
                             static_cast<std::uint64_t>(s.selfPort),
                             static_cast<void *>(&rcv), std::uint64_t{0}));
                if (!r.ok() || r.value != xnu::KERN_SUCCESS)
                    break;
                if (!rcv.ool.empty() && rcv.ool[0].address != 0) {
                    Bytes poke{7, 7};
                    k_.trap(t, TrapClass::XnuMach, xnu::machno::VM_WRITE,
                            makeArgs(rcv.ool[0].address,
                                     static_cast<const Bytes *>(&poke)));
                    k_.trap(t, TrapClass::XnuMach,
                            xnu::machno::VM_DEALLOCATE,
                            makeArgs(rcv.ool[0].address));
                }
            }
        }
        sample(s, "ipc", t.clock().now() - t0);

        // VM traps.
        t0 = t.clock().now();
        std::uint64_t vmaddr = 0;
        SyscallResult va = retry([&] {
            vmaddr = 0;
            return k_.trap(t, TrapClass::XnuMach, xnu::machno::VM_ALLOCATE,
                           makeArgs(std::uint64_t{16384},
                                    static_cast<void *>(&vmaddr)));
        });
        if (va.ok() && va.value == xnu::KERN_SUCCESS && vmaddr != 0) {
            Bytes pattern{1, 2, 3, 4};
            k_.trap(t, TrapClass::XnuMach, xnu::machno::VM_WRITE,
                    makeArgs(vmaddr, static_cast<const Bytes *>(&pattern)));
            Bytes back;
            k_.trap(t, TrapClass::XnuMach, xnu::machno::VM_READ,
                    makeArgs(vmaddr, std::uint64_t{4},
                             static_cast<Bytes *>(&back)));
            k_.trap(t, TrapClass::XnuMach, xnu::machno::VM_DEALLOCATE,
                    makeArgs(vmaddr));
        }
        sample(s, "vm", t.clock().now() - t0);

        // psynch: a pid-namespaced semaphore (sessions must not alias
        // each other's waitq channels under SMP).
        if (s.rng.chance(0.7)) {
            t0 = t.clock().now();
            std::uint64_t sem =
                (static_cast<std::uint64_t>(s.proc->pid()) << 20) |
                static_cast<std::uint64_t>(s.round);
            k_.trap(t, TrapClass::XnuMach, xnu::machno::SEMAPHORE_SIGNAL,
                    makeArgs(sem));
            k_.trap(t, TrapClass::XnuMach, xnu::machno::SEMAPHORE_WAIT,
                    makeArgs(sem, std::uint64_t{25'000}));
            sample(s, "psynch", t.clock().now() - t0);
        }
    }

    // --- Signal fan-out: poke the peer (SRCH once it exits is fine).
    if (s.peerPid > 0 && s.rng.chance(0.5)) {
        t0 = t.clock().now();
        k_.sysKill(t, s.peerPid, kernel::lsig::USR1);
        sample(s, "signal", t.clock().now() - t0);
    }

    // --- Dex/JIT: every other round per session.
    if ((s.round + static_cast<int>(s.id)) % 2 == 0 && s.dalvik) {
        t0 = t.clock().now();
        android::DexVal r =
            s.dalvik->run(*s.dex, "sum", {std::int64_t{100}});
        if (android::dexI(r) != 5050)
            dexWrong_.fetch_add(1, std::memory_order_relaxed);
        sample(s, "dex", t.clock().now() - t0);
    }

    // --- Diplomatic GL burst: every fourth round per session.
    if ((s.round + static_cast<int>(s.id)) % 4 == 0) {
        t0 = t.clock().now();
        glBurst(s, t);
        sample(s, "gl", t.clock().now() - t0);
    }

    // --- NetBurst: TCP-lite round trip + datagram peer pokes.
    if (opts_.netBurst) {
        t0 = t.clock().now();
        netBurst(s, t);
        sample(s, "net", t.clock().now() - t0);
    }

    ++s.round;
    if (s.round >= opts_.rounds)
        k_.sysExit(t, 0); // throws ProcessExit
    if (s.rng.chance(0.15))
        s.phase = Phase::Background;
}

void
Engine::doIdle(Session &s, Thread &t)
{
    charge(25'000); // parked in the background
    if (s.selfPort != xnu::MACH_PORT_NULL) {
        PersonaGuard diplomat(sys_.personaManager(), t, Persona::Ios);
        xnu::MachMessage rcv;
        SyscallResult r = k_.trap(
            t, TrapClass::XnuMach, xnu::machno::MACH_MSG,
            makeArgs(static_cast<void *>(nullptr),
                     xnu::machmsg::RCV | xnu::machmsg::RCV_TIMEOUT,
                     static_cast<std::uint64_t>(s.selfPort),
                     static_cast<void *>(&rcv), std::uint64_t{0}));
        if (r.ok() && r.value == xnu::KERN_SUCCESS && !rcv.ool.empty() &&
            rcv.ool[0].address != 0)
            k_.trap(t, TrapClass::XnuMach, xnu::machno::VM_DEALLOCATE,
                    makeArgs(rcv.ool[0].address));
    }
    ++s.round;
    if (s.round >= opts_.rounds)
        k_.sysExit(t, 0);
    if (s.rng.chance(0.5))
        s.phase = Phase::Foreground;
}

void
Engine::dropGlLayers(binfmt::UserEnv &env)
{
    // EAGL has no destroy export (apps just drop the ObjC context), so
    // sessions must sweep their SurfaceFlinger layers explicitly or
    // thousands of dead layers would pile into every composeFrame.
    android::EglState &st = android::eglState(env);
    for (auto &[id, surf] : st.surfaces)
        sys_.surfaceFlinger().removeLayer(surf.layerId);
    st.surfaces.clear();
}

void
Engine::glBurst(Session &s, Thread &t)
{
    binfmt::UserEnv env{k_, t, {}};
    auto call = [&env](const binfmt::LibraryImage *lib, const char *name,
                       std::vector<binfmt::Value> args) -> binfmt::Value {
        if (!lib)
            return {};
        const binfmt::Symbol *sym = lib->exports.find(name);
        if (!sym)
            return {};
        return sym->fn(env, args);
    };
    try {
        if (s.persona == Persona::Ios) {
            const binfmt::LibraryImage *eagl =
                sys_.iosLibraries().find("EAGL.dylib");
            const binfmt::LibraryImage *gles =
                sys_.iosLibraries().find("OpenGLES.dylib");
            if (!eagl || !gles)
                return;
            binfmt::Value ctx =
                call(eagl, ios::kEaglCreateContext,
                     {std::int64_t{64}, std::int64_t{64}});
            call(eagl, ios::kEaglSetCurrent, {ctx});
            for (int i = 0; i < 3; ++i)
                call(gles, "glUniform1f", {std::int64_t{1}, 0.25});
            call(gles, "glDrawArrays",
                 {std::int64_t{4}, std::int64_t{0}, std::int64_t{24}});
            call(eagl, ios::kEaglPresent, {ctx});
        } else {
            const binfmt::LibraryImage *egl =
                sys_.androidLibraries().find("libEGL.so");
            const binfmt::LibraryImage *gles =
                sys_.androidLibraries().find("libGLESv2.so");
            if (!egl || !gles)
                return;
            call(egl, "eglInitialize", {});
            binfmt::Value surf =
                call(egl, "eglCreateWindowSurface",
                     {std::int64_t{64}, std::int64_t{64}});
            call(egl, "eglMakeCurrent", {surf});
            call(gles, "glClearColor", {0.1, 0.2, 0.3, 1.0});
            call(gles, "glClear", {std::int64_t{0x4000}});
            call(gles, "glDrawArrays",
                 {std::int64_t{4}, std::int64_t{0}, std::int64_t{24}});
            call(egl, "eglSwapBuffers", {surf});
            call(egl, "eglDestroySurface", {surf});
        }
    } catch (const ProcessExit &) {
        dropGlLayers(env); // OOM-killed mid-burst still sweeps layers
        throw;
    }
    dropGlLayers(env);
}

/**
 * One NetBurst: a nonblocking TCP-lite round trip hairpinned through
 * the NIC + loopback fabric, then datagram pokes between fan-out
 * peers. Every step tolerates failure — under a nic.* storm the SYN,
 * the data, or the poke can be eaten by the wire, and a peer may have
 * exited; the segment's job is traffic, not delivery guarantees.
 */
void
Engine::netBurst(Session &s, Thread &t)
{
    const kernel::NetAddr addr = k_.net().defaultAddr();
    const auto lport =
        static_cast<kernel::NetPort>(20000 + s.proc->pid() % 20000);
    int one = 1;

    SyscallResult lr = k_.sysNetSocket(t, 1);
    if (lr.ok()) {
        auto lfd = static_cast<kernel::Fd>(lr.value);
        k_.sysIoctl(t, lfd, kernel::netio::FIONBIO, &one);
        if (k_.sysNetBind(t, lfd, 0, lport).ok() &&
            k_.sysListen(t, lfd, 4).ok()) {
            SyscallResult cr = k_.sysNetSocket(t, 1);
            if (cr.ok()) {
                auto cfd = static_cast<kernel::Fd>(cr.value);
                k_.sysIoctl(t, cfd, kernel::netio::FIONBIO, &one);
                if (k_.sysNetConnect(t, cfd, addr, lport).ok()) {
                    SyscallResult ar = k_.sysAccept(t, lfd);
                    if (ar.ok()) {
                        auto sfd = static_cast<kernel::Fd>(ar.value);
                        k_.sysIoctl(t, sfd, kernel::netio::FIONBIO,
                                    &one);
                        Bytes chunk(
                            std::size_t{1024},
                            static_cast<std::uint8_t>(s.round));
                        k_.sysWrite(t, cfd, chunk);
                        k_.sysIoctl(t, cfd, kernel::netio::PUMP,
                                    nullptr);
                        Bytes got;
                        k_.sysRead(t, sfd, got, chunk.size());
                        k_.sysClose(t, sfd);
                    }
                }
                k_.sysClose(t, cfd);
            }
        }
        k_.sysClose(t, lfd);
    }

    if (s.dgramFd >= 0) {
        if (s.peerPid > 0) {
            auto pport = static_cast<kernel::NetPort>(
                40000 + s.peerPid % 20000);
            k_.sysNetSendTo(t, s.dgramFd, addr, pport, Bytes{0xCD});
        }
        // Drain our own mailbox (nonblocking: AGAIN ends the loop).
        Bytes pkt;
        kernel::NetAddr src = 0;
        kernel::NetPort sport = 0;
        for (int i = 0; i < 8; ++i)
            if (!k_.sysNetRecvFrom(t, s.dgramFd, pkt, 64, &src, &sport)
                     .ok())
                break;
    }
}

/** A new session and its process, a child of init, in the table. The
 *  caller schedules its first (launch) step. */
Engine::Session &
Engine::admit(std::size_t id, Persona persona)
{
    auto up = std::make_unique<Session>();
    Session &s = *up;
    s.id = id;
    s.vcpu = static_cast<unsigned>(id % k_.percpu().count());
    s.persona = persona;
    s.rng = Rng((opts_.seed << 16) ^ (id * 0x9e3779b97f4a7c15ULL + 1));
    s.proc = &k_.createProcess("fleet.s" + std::to_string(id), persona,
                               init_);
    ++report_.sessionsStarted;
    sessions_.push_back(std::move(up));
    return s;
}

/**
 * Give a launched, unwired session a send right to the chain's tail —
 * the last session wired, while it lives — and make it the new tail.
 * A session with no partner is wired to itself.
 */
void
Engine::wire(Session &s)
{
    if (s.wired || s.phase == Phase::Launching || !live(s))
        return;
    s.wired = true;
    if (s.selfPort == xnu::MACH_PORT_NULL)
        return;
    Session *peer =
        chainTail_ != nullptr && live(*chainTail_) ? chainTail_ : &s;
    xnu::MachIpc &ipc = sys_.machIpc();
    xnu::MachTaskState &peerTask = xnu::machTask(ipc, *peer->proc);
    xnu::MachTaskState &ownTask = xnu::machTask(ipc, *s.proc);
    xnu::PortPtr port;
    if (peerTask.space &&
        ipc.portLookup(*peerTask.space, peer->selfPort, &port) ==
            xnu::KERN_SUCCESS &&
        ownTask.space) {
        xnu::mach_port_name_t name = xnu::MACH_PORT_NULL;
        if (ipc.insertSendRight(*ownTask.space, port, &name) ==
            xnu::KERN_SUCCESS) {
            s.peerSend = name;
            s.peerPid = peer->proc->pid();
        }
    }
    chainTail_ = &s;
}

/** Step @p s on the calling thread until its process exits, wiring it
 *  once launched (warm-ups and rail guests). */
void
Engine::drive(Session &s)
{
    while (live(s)) {
        wire(s);
        step(s);
    }
}

/**
 * One inline session per persona before the before-snapshot, so lazy
 * first-touch state — the shared dyld cache region, zone slabs,
 * framework singletons — is steady before accounting starts. Its stats
 * are discarded, and it is never a later session's chain partner.
 */
void
Engine::warmUp(Persona persona)
{
    bool ios = persona == Persona::Ios;
    Session s;
    s.id = 0xFFFF; // odd-ish id so the dex/gl cadences still fire
    s.persona = persona;
    s.rng = Rng(opts_.seed ^ (ios ? 0x1505u : 0x0a0du));
    s.proc = &k_.createProcess(ios ? "fleet.warm_ios" : "fleet.warm_android",
                               persona, nullptr);
    drive(s);
    k_.reapProcess(s.proc->pid()); // orphan corpse: direct init-style reap
    chainTail_ = nullptr;
}

void
Engine::watchdog(Thread &initT)
{
    for (auto &up : sessions_) {
        Session &s = *up;
        if (!live(s) || s.phase == Phase::Launching)
            continue;
        if (s.lastStepNs <= opts_.watchdogBudgetNs)
            continue;
        ++s.warns;
        ++report_.watchdogWarnings;
        char buf[192];
        if (s.warns > opts_.watchdogWarnLimit) {
            std::snprintf(buf, sizeof buf,
                          "watchdog: session %zu pid %d step consumed "
                          "%.1fms virtual (warning %d) -> SIGKILL",
                          s.id, static_cast<int>(s.proc->pid()),
                          static_cast<double>(s.lastStepNs) / 1e6, s.warns);
            report_.failureTraces.push_back(buf);
            ThreadScope scope(initT);
            k_.sysKill(initT, s.proc->pid(), kernel::lsig::KILL);
            ++report_.watchdogKills;
        } else if (report_.failureTraces.size() < 64) {
            std::snprintf(buf, sizeof buf,
                          "watchdog: session %zu pid %d step consumed "
                          "%.1fms virtual (warning %d/%d)",
                          s.id, static_cast<int>(s.proc->pid()),
                          static_cast<double>(s.lastStepNs) / 1e6, s.warns,
                          opts_.watchdogWarnLimit);
            report_.failureTraces.push_back(buf);
        }
    }
    for (const ducttape::BlockedWait &w :
         ducttape::waitq_blocked_waits(1000.0)) {
        if (report_.failureTraces.size() >= 64)
            break;
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "watchdog: hung wait at %s, blocked %.0fms host "
                      "(virtual %" PRIu64 "ns)",
                      w.site ? w.site : "?", w.hostBlockedMs, w.virtualNs);
        report_.failureTraces.push_back(buf);
    }
}

void
Engine::killStorm(Thread &initT, Rng &rng)
{
    ThreadScope scope(initT);
    for (auto &up : sessions_) {
        Session &s = *up;
        if (!live(s) || s.phase == Phase::Launching)
            continue;
        if (!rng.chance(opts_.killStormFraction))
            continue;
        k_.sysKill(initT, s.proc->pid(), kernel::lsig::KILL);
    }
}

void
Engine::cleanupSessionDir(Thread &t, const std::string &dir)
{
    // A storm/watchdog kill can land mid-VFS-churn; sweep the corpse's
    // files so the namespace (and any zone-backed inodes) return to
    // baseline. Clean exits already unlinked everything.
    if (dir.empty())
        return;
    for (int i = 0; i < 5; ++i)
        k_.sysUnlink(t, dir + "/f" + std::to_string(i));
    k_.sysRmdir(t, dir);
}

std::size_t
Engine::reapPass(Thread &initT)
{
    ThreadScope scope(initT);
    k_.checkPendingSignals(initT); // drain queued SIGCHLDs
    std::size_t reaped = 0;
    for (auto &up : sessions_) {
        Session &s = *up;
        if (!s.proc || s.proc->state() != Process::State::Zombie)
            continue;
        kernel::Pid pid = s.proc->pid();
        int status = -1;
        SyscallResult r = k_.sysWaitpid(initT, pid, &status);
        cleanupSessionDir(initT, s.dir);
        k_.reapProcess(pid);
        if (chainTail_ == &s)
            chainTail_ = nullptr;
        s.proc = nullptr;
        s.dalvik.reset();
        s.jitCache.reset();
        s.dex.reset();
        mergeStats(s);
        if (!r.ok())
            ++report_.sessionsFailed;
        else if (status == 0)
            ++report_.sessionsCompleted;
        else if (status >= 128)
            ++report_.sessionsKilled;
        else
            ++report_.sessionsFailed;
        ++reaped;
    }
    return reaped;
}

void
Engine::mergeStats(Session &s)
{
    for (auto &[name, st] : s.stats) {
        SubsystemStats &agg = report_.subsystems[name];
        agg.samples.insert(agg.samples.end(), st.samples.begin(),
                           st.samples.end());
        agg.ops += st.ops;
        agg.virtualNs += st.virtualNs;
    }
    s.stats.clear();
}

void
Engine::armStorm(std::uint64_t seed_base)
{
    ducttape::waitq_set_block_grace_ms(2);
    k_.setOomKillEnabled(true);
    FaultRail &rail = FaultRail::global();
    rail.disarmAll();
    rail.resetCounters();
    rail.setTracking(true);
    std::uint64_t idx = 0;
    for (const char *site : kFleetSites)
        rail.armProbability(site, kStormProbability, seed_base + idx++);
}

void
Engine::disarmStorm()
{
    FaultRail &rail = FaultRail::global();
    report_.faultTrips = rail.totalTrips();
    rail.disarmAll();
    rail.setTracking(false);
    rail.resetCounters();
    ducttape::waitq_set_block_grace_ms(100);
    k_.setOomKillEnabled(false);
}

void
Engine::foldCounters()
{
    report_.retriesTransient =
        retriesTransient_.load(std::memory_order_relaxed);
    report_.retriesExhausted =
        retriesExhausted_.load(std::memory_order_relaxed);
    report_.permanentErrors =
        permanentErrors_.load(std::memory_order_relaxed);
    report_.chldReceived = chld_.load(std::memory_order_relaxed);
    std::uint64_t wrong = dexWrong_.load(std::memory_order_relaxed);
    if (wrong > 0)
        report_.failureTraces.push_back(
            "dex: " + std::to_string(wrong) +
            " wrong results (JIT fallback contract violated)");
}

/**
 * The bracket every soak runs in: warm-up, before-snapshot, the init
 * reaper, the storm around @p body (which admits and drives the
 * sessions), then the reap, after-snapshot, audit and counters.
 */
FleetReport
Engine::soak(std::uint64_t stormSeed,
             const std::function<void(Thread &initT)> &body)
{
    auto hostStart = std::chrono::steady_clock::now();
    ensureInstalled(sys_);
    warmUp(Persona::Ios);
    warmUp(Persona::Android);
    report_.before = takeLeakSnapshot(sys_);

    init_ = &k_.createProcess("fleet.init", Persona::Android, nullptr);
    Thread &initT = init_->mainThread();
    {
        ThreadScope scope(initT);
        kernel::SignalAction act;
        act.kind = kernel::SignalAction::Kind::Handler;
        std::atomic<std::uint64_t> *chld = &chld_;
        act.fn = [chld](int, const kernel::SigInfo &) {
            chld->fetch_add(1, std::memory_order_relaxed);
        };
        k_.sysSigaction(initT, kernel::lsig::CHLD, act);
    }

    if (opts_.storm)
        armStorm(stormSeed);
    body(initT);
    if (opts_.storm)
        disarmStorm();

    // Teardown: init reaps what is left, drains its last SIGCHLDs,
    // exits, and is reaped.
    reapPass(initT);
    {
        ThreadScope scope(initT);
        k_.checkPendingSignals(initT);
        try {
            k_.sysExit(initT, 0);
        } catch (const ProcessExit &) {
        }
    }
    k_.reapProcess(init_->pid());
    init_ = nullptr;

    report_.after = takeLeakSnapshot(sys_);
    report_.auditClean = leakAuditClean(report_.before, report_.after,
                                        &report_.auditDetail);
    foldCounters();
    report_.hostMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - hostStart)
            .count();
    return report_;
}

FleetReport
Engine::runScale()
{
    return soak(opts_.seed * 1000, [this](Thread &initT) {
        kernel::ExecutorPool pool(k_.percpu(), opts_.hostThreads != 0
                                                   ? opts_.hostThreads
                                                   : k_.percpu().count());
        std::size_t spawned = 0;
        std::size_t active = 0;
        std::size_t finished = 0;
        Rng stormRng(opts_.seed ^ 0xdead5eedULL);
        std::uint64_t waveCap =
            static_cast<std::uint64_t>(opts_.sessions) *
                static_cast<std::uint64_t>(opts_.rounds + 16) +
            64;

        while (finished < opts_.sessions) {
            // Step every live session this wave (before admission
            // reads the queue depth, so backpressure sees the real
            // load).
            for (auto &up : sessions_) {
                Session *raw = up.get();
                if (live(*raw))
                    pool.submitOn(raw->vcpu,
                                  [this, raw] { return step(*raw); },
                                  "fleet.step");
            }

            // Admission control: top the fleet up to maxActive unless
            // the run queues or the port zone are saturated.
            while (spawned < opts_.sessions && active < opts_.maxActive) {
                if (pool.queuedJobs() >= kQueueHighWater ||
                    sys_.machIpc().portZoneStats().live >=
                        kPortZoneHighWater) {
                    ++report_.admissionDeferred;
                    break;
                }
                std::size_t id = spawned++;
                Session *raw = &admit(
                    id, id % 2 == 0 ? Persona::Ios : Persona::Android);
                pool.submitOn(raw->vcpu, [this, raw] { return step(*raw); },
                              "fleet.launch");
                ++active;
            }
            if (spawned < opts_.sessions && active >= opts_.maxActive)
                ++report_.admissionDeferred;
            report_.peakLive = std::max(report_.peakLive, active);

            kernel::SmpEpoch epoch = pool.runAll();
            report_.virtualDurationNs += epoch.mergedNs;
            report_.steals += epoch.steals;
            ++report_.waves;

            for (auto &up : sessions_)
                wire(*up);
            watchdog(initT);
            if (opts_.storm)
                killStorm(initT, stormRng);
            std::size_t reaped = reapPass(initT);
            finished += reaped;
            active -= reaped;

            if (report_.waves > waveCap) {
                report_.failureTraces.push_back(
                    "wave cap exceeded: " + std::to_string(finished) + "/" +
                    std::to_string(opts_.sessions) + " sessions finished");
                break;
            }
        }
    });
}

FleetReport
Engine::runRailed(std::uint64_t seed, std::size_t n)
{
    n = std::clamp<std::size_t>(n, 1, 8);
    return soak(seed * 997, [this, seed, n](Thread &) {
        // Rail guests are Android/ELF only: the iOS dyld bootstrap
        // holds the shared-region mutex across work that contains rail
        // yield points, which would deadlock the host under an armed
        // rail. Schedule sensitivity comes from the chain-wired
        // mailboxes and signal pokes: whether a peer's message has
        // landed when a guest polls depends on the interleaving.
        for (std::size_t i = 0; i < n; ++i)
            admit(i, Persona::Android);
        kernel::SchedRail &rail = kernel::SchedRail::global();
        kernel::SchedOptions sopt;
        sopt.policy = kernel::SchedPolicy::Random;
        sopt.seed = seed;
        rail.arm(sopt);
        for (auto &up : sessions_) {
            Session *raw = up.get();
            rail.spawn(raw->proc->name().c_str(),
                       [this, raw] { drive(*raw); });
        }
        kernel::SchedResult res = rail.run();
        rail.disarm();

        report_.railCompleted = res.completed;
        report_.railDeadlocked = res.deadlocked;
        report_.waves = res.decisions;
        for (const std::string &b : res.blockedThreads)
            report_.failureTraces.push_back("rail deadlock: " + b);
        // An aborted guest's process never exits; the audit counts it.
        for (auto &up : sessions_) {
            std::uint64_t ns = up->proc->mainThread().clock().now();
            report_.railSeries.push_back(ns);
            report_.virtualDurationNs =
                std::max(report_.virtualDurationNs, ns);
        }
    });
}

} // namespace

std::uint64_t
SubsystemStats::percentile(double p) const
{
    if (samples.empty())
        return 0;
    std::vector<std::uint64_t> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    double rank = p * static_cast<double>(sorted.size() - 1);
    auto idx = static_cast<std::size_t>(rank + 0.5);
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

LeakSnapshot
takeLeakSnapshot(CiderSystem &sys)
{
    LeakSnapshot snap;
    sys.kernel().forEachProcess([&snap](kernel::Process &p) {
        ++snap.processes;
        if (p.state() == kernel::Process::State::Zombie)
            ++snap.zombies;
        snap.threads += p.threads().size();
    });
    snap.portsLive = sys.machIpc().portZoneStats().live;
    snap.vmObjectsLive = kernel::vmLiveObjects();
    snap.zoneLiveElements = ducttape::zone_registry_totals().liveElements;
    snap.blockedWaits = ducttape::waitq_blocked_waits(250.0).size();
    kernel::NetStats net = sys.kernel().net().stats();
    snap.netSocketsLive = net.socketsLive;
    snap.netBufferedBytes = net.bufferedBytes;
    snap.gpuBuffersLive = sys.gpu().buffers().liveCount();
    return snap;
}

bool
leakAuditClean(const LeakSnapshot &before, const LeakSnapshot &after,
               std::string *why)
{
    std::string detail;
    auto drift = [&detail](const char *name, std::uint64_t b,
                           std::uint64_t a) {
        if (a == b)
            return;
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s %llu -> %llu; ", name,
                      static_cast<unsigned long long>(b),
                      static_cast<unsigned long long>(a));
        detail += buf;
    };
    drift("processes", before.processes, after.processes);
    drift("zombies", before.zombies, after.zombies);
    drift("threads", before.threads, after.threads);
    drift("ports", before.portsLive, after.portsLive);
    drift("vmObjects", before.vmObjectsLive, after.vmObjectsLive);
    drift("zoneElements", before.zoneLiveElements, after.zoneLiveElements);
    drift("blockedWaits", before.blockedWaits, after.blockedWaits);
    drift("netSockets", before.netSocketsLive, after.netSocketsLive);
    drift("netBufferedBytes", before.netBufferedBytes,
          after.netBufferedBytes);
    drift("gpuBuffers", before.gpuBuffersLive, after.gpuBuffersLive);
    if (why)
        *why = detail;
    return detail.empty();
}

std::vector<SloGate>
defaultSloGates(double scale, bool net)
{
    if (scale <= 0)
        scale = 1.0;
    auto gate = [scale](const char *name, std::uint64_t p50,
                        std::uint64_t p99, double floor) {
        SloGate g;
        g.subsystem = name;
        g.p50CeilingNs =
            static_cast<std::uint64_t>(static_cast<double>(p50) * scale);
        g.p99CeilingNs =
            static_cast<std::uint64_t>(static_cast<double>(p99) * scale);
        g.minOpsPerVirtualSec = floor / scale;
        return g;
    };
    // Ceilings sit ~3-5x above the measured default-profile numbers at
    // 1200 sessions (launch p50 3.9ms, vfs 258/334us, ipc 6.5/11.7us,
    // vm 1.6us, psynch 1.1us, signal 5-6us, gl 1.35ms, dex 6.8us),
    // floors ~4x below the worst observed throughput across fleet
    // sizes — tight enough to catch a real regression (a leaked layer
    // pile-up, a lock convoy), loose enough to survive profile drift.
    // Latencies are *virtual* time, so they are host-independent.
    // gl/dex/launch have no throughput floor: their cadence is a
    // session-mix choice, not a performance fact.
    std::vector<SloGate> gates = {
        gate("launch", 12'000'000, 16'000'000, 0),
        gate("vfs", 1'000'000, 2'000'000, 300),
        gate("ipc", 30'000, 60'000, 300),
        gate("vm", 8'000, 16'000, 300),
        gate("psynch", 8'000, 16'000, 200),
        gate("signal", 30'000, 60'000, 60),
        gate("gl", 5'000'000, 8'000'000, 0),
        gate("dex", 30'000, 60'000, 0),
    };
    // A NetBurst is a full handshake + kilobyte transfer + teardown
    // with link latency charged per frame, so its ceilings sit well
    // above the single-trap segments'; no throughput floor (the
    // burst cadence is a mix choice).
    if (net)
        gates.push_back(gate("net", 2'000'000, 4'000'000, 0));
    return gates;
}

bool
evaluateSlos(const FleetReport &report, const std::vector<SloGate> &gates,
             std::vector<std::string> *violations)
{
    bool ok = true;
    auto fail = [&ok, violations](const std::string &line) {
        ok = false;
        if (violations)
            violations->push_back(line);
    };
    char buf[192];
    for (const SloGate &g : gates) {
        auto it = report.subsystems.find(g.subsystem);
        if (it == report.subsystems.end() || it->second.ops == 0) {
            fail(g.subsystem + ": no samples recorded");
            continue;
        }
        const SubsystemStats &st = it->second;
        if (g.p50CeilingNs != 0 && st.p50() > g.p50CeilingNs) {
            std::snprintf(buf, sizeof buf,
                          "%s: p50 %" PRIu64 "ns > ceiling %" PRIu64 "ns",
                          g.subsystem.c_str(), st.p50(), g.p50CeilingNs);
            fail(buf);
        }
        if (g.p99CeilingNs != 0 && st.p99() > g.p99CeilingNs) {
            std::snprintf(buf, sizeof buf,
                          "%s: p99 %" PRIu64 "ns > ceiling %" PRIu64 "ns",
                          g.subsystem.c_str(), st.p99(), g.p99CeilingNs);
            fail(buf);
        }
        if (g.minOpsPerVirtualSec > 0) {
            double rate = report.opsPerVirtualSec(g.subsystem);
            if (rate < g.minOpsPerVirtualSec) {
                std::snprintf(buf, sizeof buf,
                              "%s: %.1f ops/vsec < floor %.1f",
                              g.subsystem.c_str(), rate,
                              g.minOpsPerVirtualSec);
                fail(buf);
            }
        }
    }
    return ok;
}

FleetSoak::FleetSoak(CiderSystem &sys, const FleetOptions &opts)
    : sys_(sys), opts_(opts)
{
    kernel::Kernel &k = sys.kernel();
    if (auto *node =
            dynamic_cast<kernel::ProcNode *>(k.devices().find("fleet"))) {
        board_ = node->render().target<FleetNodeText>()->board;
        return;
    }
    board_ = std::make_shared<FleetBoard>();
    k.addProcNode("fleet", FleetNodeText{board_});
}

FleetReport
FleetSoak::run()
{
    Engine engine(sys_, opts_);
    FleetReport report = engine.runScale();
    publish(report, "scale");
    return report;
}

FleetReport
FleetSoak::runRailed(std::uint64_t seed, std::size_t n)
{
    Engine engine(sys_, opts_);
    FleetReport report = engine.runRailed(seed, n);
    publish(report, "railed");
    return report;
}

std::string
FleetSoak::procText() const
{
    std::lock_guard<std::mutex> lock(board_->mu);
    return board_->text;
}

void
FleetSoak::publish(const FleetReport &report, const char *mode)
{
    std::string text = buildReportText(report, mode);
    std::lock_guard<std::mutex> lock(board_->mu);
    board_->text = std::move(text);
}

} // namespace cider::core
