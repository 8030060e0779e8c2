/**
 * @file
 * SchedRail: deterministic interleaving exploration for the
 * concurrency core.
 *
 * A cooperative scheduler that, when armed, serializes a set of guest
 * threads onto the yield points threaded through the blocking
 * primitives (waitq_wait / waitq_wait_deadline / waitq_wakeup_* and
 * the railed lck_mtx paths in ducttape/xnu_api.cc), the psynch
 * mutex/cv/sem entries, the Mach IPC message queue send/receive
 * paths, and the TrapContext dispatch boundary. Exactly one guest
 * runs at a time; every point where the schedule could branch becomes
 * an explicit *decision* recorded in a trace:
 *
 *  - a guest hits a yield point            (kind 'y' — preemptible)
 *  - a guest passes its turn               (kind 'p' — voluntary)
 *  - a guest blocks on a wait channel      (kind 'b')
 *  - a guest blocks with a deadline        (kind 'd')
 *  - a guest finishes                      (kind 'f')
 *
 * The next guest is chosen from the enabled set (runnable guests plus
 * deadline-blocked guests, whose selection *fires their timeout*) by
 * one of three policies:
 *
 *  - Random:  seeded PRNG (base::Rng SplitMix64) — same seed, same
 *             byte-identical schedule trace;
 *  - Replay:  an explicit schedule (one chosen thread per decision),
 *             typically parsed back from a recorded trace, for
 *             shrinking and regression pinning;
 *  - Explore: a forced prefix followed by a deterministic
 *             non-preemptive default, the building block of the
 *             bounded-preemption DFS in exploreSchedules().
 *
 * Virtual-time deadline waits are made deterministic by construction:
 * a deadline-blocked guest stays schedulable, and *scheduling it* is
 * the timeout firing (its virtual clock lands exactly on the
 * deadline, as in the host-grace implementation). A wakeup that
 * arrives first moves the guest back to the runnable set and its
 * timeout can no longer fire.
 *
 * While a rail episode runs, only rail guests may touch the railed
 * subsystems: guest lck_mtx ownership is tracked logically (the host
 * mutex is not taken), so lock contention and lost wakeups are
 * rail-visible and an all-blocked state is detected as a deadlock
 * instead of hanging the host. On deadlock the episode is aborted:
 * every parked guest unwinds via SchedRailAbort and the run reports
 * the blocked thread/site list plus the trace that led there. The
 * aborted guests' kernel objects are poisoned and must be discarded.
 *
 * Disarmed, every yield point is a single relaxed atomic load and
 * never charges virtual time — the FaultRail pattern — so production
 * paths and the hot-path benches are unaffected.
 *
 * On top of the rail sits a lock-order graph: while tracking is
 * enabled, every lck_mtx (and zalloc zone lock) acquisition records
 * held-before edges; cycles in that graph are reported as potential
 * deadlocks through lockOrderCycles() and the /proc/cider/lockorder
 * device node.
 */

#ifndef CIDER_KERNEL_SCHED_RAIL_H
#define CIDER_KERNEL_SCHED_RAIL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"

namespace cider::kernel {

/** Unwinds a parked guest when the rail aborts an episode (deadlock
 *  or disarm); caught by the guest wrapper, never by guest code. */
struct SchedRailAbort
{
};

enum class SchedPolicy
{
    Random,  ///< seeded PRNG pick per decision
    Replay,  ///< follow an explicit schedule; deterministic fallback
    Explore, ///< forced prefix + non-preemptive deterministic default
};

struct SchedOptions
{
    SchedPolicy policy = SchedPolicy::Random;
    std::uint64_t seed = 1;
    /** Replay/Explore: chosen thread id per decision index. */
    std::vector<std::uint32_t> schedule;
};

/** One scheduling decision (the unit of the schedule trace). */
struct SchedEvent
{
    std::uint64_t index = 0;
    char kind = '?'; ///< 's' start, 'y' yield, 'p' pass, 'b' block,
                     ///< 'd' deadline-block, 'f' finish
    std::uint32_t chosen = 0;
    /** The chosen guest was deadline-blocked: this pick IS its
     *  timeout firing. */
    bool timeoutFired = false;
    const char *site = nullptr;
    /** Schedulable guests at this decision, ascending id. */
    std::vector<std::uint32_t> enabled;
};

/** Outcome of one rail episode (SchedRail::run). */
struct SchedResult
{
    bool completed = false;  ///< every guest finished
    bool deadlocked = false; ///< all-blocked state was detected
    bool diverged = false;   ///< a Replay choice was not enabled
    std::uint64_t decisions = 0;
    std::uint64_t preemptions = 0;
    std::vector<SchedEvent> trace;
    /** "name @ site" for each guest parked at deadlock detection. */
    std::vector<std::string> blockedThreads;

    /** Chosen thread per decision — feed back as SchedOptions::schedule. */
    std::vector<std::uint32_t> schedule() const;

    /** Canonical replayable text form of the trace. Two runs of the
     *  same program under the same policy compare byte-identical. */
    std::string traceText() const;

    /** Write traceText() to @p path (schedule-trace artifact). */
    bool writeTrace(const std::string &path) const;

    /** Parse the schedule back out of traceText()-format text. */
    static std::vector<std::uint32_t> parseSchedule(const std::string &text);
};

/**
 * Held-before graph over kernel locks. Nodes are lock addresses with
 * labels; an edge a->b is recorded when b is acquired while a is
 * held. A cycle is a potential deadlock even if no schedule has hit
 * it yet. Tracking is off by default (one relaxed load per lock op);
 * enable it only around a quiesced phase — locks already held when
 * tracking flips on are not seen.
 */
class LockOrderGraph
{
  public:
    void setTracking(bool on);
    bool
    tracking() const
    {
        return tracking_.load(std::memory_order_relaxed);
    }

    /** Record an acquisition by the calling host thread. */
    void acquired(const void *lock, const char *label);
    void released(const void *lock);

    /** Drop all nodes/edges (held stacks of live threads persist). */
    void reset();

    std::size_t nodeCount() const;
    std::size_t edgeCount() const;

    /** Each cycle as "a -> b -> a" over node labels. */
    std::vector<std::string> cycles() const;

    /** The /proc/cider/lockorder text. */
    std::string dump() const;

  private:
    struct Node
    {
        std::string label;
        std::map<const void *, std::uint64_t> out; ///< edge -> count
    };

    mutable std::mutex mu_;
    std::map<const void *, Node> nodes_;
    std::atomic<bool> tracking_{false};
};

class SchedRail
{
  public:
    /** The process-wide rail the yield points are threaded to. */
    static SchedRail &global();

    /// @{ Arming. arm() resets episode state; disarm() also reaps any
    /// spawned-but-never-run guests. Both panic mid-run.
    void arm(const SchedOptions &opt);
    void disarm();
    bool
    engaged() const
    {
        return engaged_.load(std::memory_order_relaxed);
    }
    /// @}

    /**
     * Register a guest thread. The function runs on a dedicated host
     * thread but only while the rail schedules it. Ids are assigned
     * in spawn order (deterministic). Requires an armed, idle rail.
     */
    void spawn(const char *name, std::function<void()> fn);

    /**
     * Drive every spawned guest to completion (or deadlock) under the
     * armed policy, join the host threads, and return the episode
     * result. The guest list is consumed; arm state is kept so the
     * next spawn/run pair reuses the same options.
     */
    SchedResult run();

    /** Result of the most recent run (explorer backtracking). */
    const SchedResult &lastResult() const { return lastResult_; }

    /// @{ Yield-point hooks (no-ops for non-guest callers).
    /** Preemptible decision point — CIDER_SCHED_POINT. */
    void yieldPoint(const char *site);
    /** Voluntary hand-off: the default policy prefers another guest.
     *  Use in guest spin-waits so non-preemptive schedules progress. */
    void pass(const char *site);
    /// @}

    /// @{ Blocking hooks, called by the railed primitives with every
    /// guest-level lock logically released.
    /** Park until a wakeup on @p channel reschedules the caller. */
    void blockOn(const void *channel, const char *site);
    /** Deadline form: true when the caller was scheduled by firing
     *  its timeout, false when a wakeup arrived first. */
    bool blockOnDeadline(const void *channel, const char *site);
    /** Mark guests blocked on @p channel runnable (oldest first). */
    void wakeupChannel(const void *channel, bool all);
    /// @}

    /** Marker identifying the calling host thread's guest (null when
     *  the caller is not a rail guest). */
    static const void *guestMarker();

    LockOrderGraph &lockGraph() { return lockGraph_; }
    const LockOrderGraph &lockGraph() const { return lockGraph_; }

  private:
    struct Guest;

    SchedRail() = default;

    void guestMain(Guest *g, const std::function<void()> &fn);
    void pickNextLocked(const char *site, char kind);
    std::uint32_t defaultPickLocked(const std::vector<std::uint32_t> &enabled,
                                    std::uint32_t prev, char kind) const;
    void abortLocked();
    void parkUntilScheduled(std::unique_lock<std::mutex> &lk, Guest *g);

    mutable std::mutex mu_;
    std::condition_variable controllerCv_;
    std::vector<std::unique_ptr<Guest>> guests_;
    SchedOptions options_;
    Rng rng_{1};
    std::atomic<bool> engaged_{false};
    bool running_ = false;
    bool aborted_ = false;
    bool deadlocked_ = false;
    bool diverged_ = false;
    bool guestThrew_ = false;
    std::uint32_t runningId_ = kNoGuest;
    std::uint64_t nextBlockSeq_ = 0;
    std::uint64_t preemptions_ = 0;
    std::vector<SchedEvent> trace_;
    std::vector<std::string> blockedThreads_;
    SchedResult lastResult_;
    LockOrderGraph lockGraph_;

    static thread_local Guest *tGuest_;

    static constexpr std::uint32_t kNoGuest = 0xffffffffu;
};

/**
 * Yield point: one relaxed load when the rail is disarmed, a
 * scheduling decision when armed and the caller is a rail guest.
 * Never charges virtual time.
 */
#define CIDER_SCHED_POINT(site_name)                                        \
    do {                                                                    \
        ::cider::kernel::SchedRail &cider_sr =                              \
            ::cider::kernel::SchedRail::global();                           \
        if (cider_sr.engaged())                                             \
            cider_sr.yieldPoint(site_name);                                 \
    } while (0)

/// @{ Bounded-preemption DFS over schedules (stateless exploration).
struct ExploreOptions
{
    /** Max forced preemptions per schedule (decisions where a guest
     *  at a 'y' yield point loses the CPU while still runnable). */
    int maxPreemptions = 2;
    std::uint64_t maxSchedules = 4096;
};

struct ExploreResult
{
    bool bugFound = false;
    bool exhausted = false; ///< hit maxSchedules before full coverage
    std::uint64_t schedulesRun = 0;
    SchedResult failing;
    std::vector<std::uint32_t> failingSchedule;
};

/**
 * Systematically explore interleavings of one episode: @p setup
 * re-creates the scenario and spawns guests on @p rail (which
 * arrives armed with an Explore prefix), @p episode_ok checks the
 * scenario invariant after the run. Returns on the first run whose
 * invariant fails (or that deadlocks), with the failing trace and
 * replayable schedule; otherwise explores every schedule reachable
 * within the preemption bound.
 */
ExploreResult exploreSchedules(SchedRail &rail,
                               const std::function<void()> &setup,
                               const std::function<bool()> &episode_ok,
                               const ExploreOptions &opt = {});
/// @}

} // namespace cider::kernel

#endif // CIDER_KERNEL_SCHED_RAIL_H
