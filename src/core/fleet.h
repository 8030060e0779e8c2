/**
 * @file
 * FleetSoak: thousands of concurrent app sessions on one booted
 * CiderSystem, driven over the ExecutorPool (DESIGN.md §14).
 *
 * The "millions of users" regression harness (ROADMAP item 4): a
 * session state machine (install -> launch -> foreground/background
 * rounds -> exit -> reap) with a per-session seeded workload mix —
 * VFS churn, cross-persona Mach-IPC fan-out, VM traps, psynch
 * semaphores, signal fan-out, diplomatic GL bursts, Dex/JIT runs —
 * paced in deterministic virtual time. The robustness machinery scale
 * demands rides along: admission control against run-queue and zone
 * saturation, bounded retry-with-backoff on transient errno/kr codes,
 * a per-session hung-watchdog (warn -> kill -> report), and a
 * post-soak leak audit asserting the process table, Mach port zone,
 * VmObject population, and zalloc zones all return to baseline.
 *
 * Two execution modes share one session state machine and one
 * bracket (warm-up, before-snapshot, init reaper, storm, reap,
 * after-snapshot, audit):
 *  - run(): the scale mode — sessions step in waves over the
 *    ExecutorPool, optionally under composed FaultRail storms and
 *    driver-side kill storms;
 *  - runRailed(): the determinism mode — a handful of sessions drive
 *    themselves to exit as SchedRail guests under a seeded random
 *    schedule; same seed, same virtual-time series, bit for bit.
 */

#ifndef CIDER_CORE_FLEET_H
#define CIDER_CORE_FLEET_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cider_system.h"

namespace cider::core {

/** Knobs of one soak run (CLI/env plumbing lives in bench/fleet_soak). */
struct FleetOptions
{
    /** Total sessions churned through the fleet. */
    std::size_t sessions = 1200;
    /** Admission cap: live sessions never exceed this. */
    std::size_t maxActive = 1024;
    /** Master seed; each session derives its own stream from it. */
    std::uint64_t seed = 1;
    /** Foreground rounds per session (the "duration" axis). */
    int rounds = 8;
    /** Arm FaultRail probability storms + driver kill storms. */
    bool storm = false;
    /** Fraction of live sessions the post-wave kill storm targets. */
    double killStormFraction = 0.02;
    /** Host worker threads for the ExecutorPool (0 = one per core). */
    unsigned hostThreads = 0;
    /**
     * Add the NetBurst segment to the per-session mix: a TCP-lite
     * stream round trip over the loopback fabric plus datagram pokes
     * between fan-out peers. Needs a config whose I/O Kit catalogue
     * brings up the NIC family (the storm arms nic.* sites too).
     */
    bool netBurst = false;

    /// @{ Hung-session watchdog: a step consuming more virtual time
    /// than the budget draws a warning; warnLimit warnings escalate
    /// to a kill, and every escalation lands in the failure traces.
    std::uint64_t watchdogBudgetNs = 400'000'000; // 400ms virtual
    int watchdogWarnLimit = 3;
    /// @}
};

/** Per-subsystem latency/throughput aggregate. */
struct SubsystemStats
{
    std::vector<std::uint64_t> samples; ///< per-op virtual ns
    std::uint64_t ops = 0;
    std::uint64_t virtualNs = 0;

    /** Percentile over the samples (sorts a copy; 0 when empty). */
    std::uint64_t percentile(double p) const;
    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p99() const { return percentile(0.99); }
};

/**
 * Leak-audit counters. Taken before and after a soak; a clean run
 * returns every counter to its baseline (magazine-parked zone
 * elements are free memory, tracked separately and exempt).
 */
struct LeakSnapshot
{
    std::size_t processes = 0;   ///< kernel process-table entries
    std::size_t zombies = 0;     ///< of which unreaped zombies
    std::size_t threads = 0;     ///< threads across table entries
    std::uint64_t portsLive = 0; ///< live elements in the port zone
    std::uint64_t vmObjectsLive = 0; ///< live VmObjects process-wide
    std::uint64_t zoneLiveElements = 0; ///< sum over the zone registry
    std::size_t blockedWaits = 0; ///< waits parked > 250ms host time
    std::uint64_t netSocketsLive = 0;   ///< bound/connected AF_INET
    std::uint64_t netBufferedBytes = 0; ///< bytes in socket buffers
    std::size_t gpuBuffersLive = 0; ///< gralloc/IOSurface buffers
};

LeakSnapshot takeLeakSnapshot(CiderSystem &sys);

/** True when @p after returned to @p before; else @p why names every
 *  counter that drifted. */
bool leakAuditClean(const LeakSnapshot &before, const LeakSnapshot &after,
                    std::string *why);

/** One SLO gate: ceilings on a subsystem's virtual-time latency plus
 *  a sustained-throughput floor (ops per virtual second). Zero
 *  disables that clause. */
struct SloGate
{
    std::string subsystem;
    std::uint64_t p50CeilingNs = 0;
    std::uint64_t p99CeilingNs = 0;
    double minOpsPerVirtualSec = 0;
};

/** The default gate profile. @p scale multiplies every ceiling and
 *  divides every floor (sanitizer builds pass a relaxation factor);
 *  @p net appends the NetBurst gate when the mix includes it. */
std::vector<SloGate> defaultSloGates(double scale = 1.0,
                                     bool net = false);

struct FleetReport
{
    std::map<std::string, SubsystemStats> subsystems;

    /// @{ Session ledger.
    std::size_t sessionsStarted = 0;
    std::size_t sessionsCompleted = 0; ///< clean exit 0
    std::size_t sessionsKilled = 0;    ///< storm + watchdog kills
    std::size_t sessionsFailed = 0;    ///< permanent launch failures
    std::size_t peakLive = 0;          ///< max concurrent sessions
    /// @}

    /// @{ Robustness machinery counters.
    std::uint64_t admissionDeferred = 0; ///< admission waved off
    std::uint64_t retriesTransient = 0;  ///< retried transient errors
    std::uint64_t retriesExhausted = 0;  ///< gave up retrying
    std::uint64_t permanentErrors = 0;
    std::size_t watchdogWarnings = 0;
    std::size_t watchdogKills = 0;
    std::uint64_t chldReceived = 0; ///< SIGCHLDs the init-reaper drained
    std::uint64_t faultTrips = 0;   ///< FaultRail trips (storm mode)
    /// @}

    /** Virtual elapsed time of the soak (sum of wave epoch merges). */
    std::uint64_t virtualDurationNs = 0;
    double hostMs = 0;
    std::uint64_t waves = 0;
    std::uint64_t steals = 0; ///< executor work-steals (host-side)

    /// @{ Leak audit.
    LeakSnapshot before, after;
    bool auditClean = false;
    std::string auditDetail;
    /// @}

    /// @{ Railed mode only: per-session virtual-ns signature (the
    /// determinism comparand) and rail outcome.
    std::vector<std::uint64_t> railSeries;
    bool railCompleted = false;
    bool railDeadlocked = false;
    /// @}

    /** Watchdog escalations + SLO context for CI artifact upload. */
    std::vector<std::string> failureTraces;

    double
    opsPerVirtualSec(const std::string &subsystem) const
    {
        auto it = subsystems.find(subsystem);
        if (it == subsystems.end() || virtualDurationNs == 0)
            return 0;
        return static_cast<double>(it->second.ops) * 1e9 /
               static_cast<double>(virtualDurationNs);
    }
};

/** Evaluate @p gates against @p report; violations are appended as
 *  human-readable lines. True when every gate holds. */
bool evaluateSlos(const FleetReport &report,
                  const std::vector<SloGate> &gates,
                  std::vector<std::string> *violations);

struct FleetBoard;

class FleetSoak
{
  public:
    /** Registers /proc/cider/fleet on @p sys (once per kernel). */
    FleetSoak(CiderSystem &sys, const FleetOptions &opts);

    /** The scale mode: churn opts.sessions sessions over the pool. */
    FleetReport run();

    /**
     * The determinism mode: @p n Android sessions (clamped to 1..8),
     * children of the same init reaper as the scale mode's, each drive
     * themselves to exit as a SchedRail guest under a seeded random
     * schedule, composed with the FaultRail storm when opts.storm is
     * set. Two calls with the same seed produce identical railSeries.
     */
    FleetReport runRailed(std::uint64_t seed, std::size_t n = 6);

    const FleetOptions &options() const { return opts_; }

    /** The latest report published on this kernel's /proc/cider/fleet
     *  by any FleetSoak; empty before the first. */
    std::string procText() const;

  private:
    void publish(const FleetReport &report, const char *mode);

    CiderSystem &sys_;
    FleetOptions opts_;
    std::shared_ptr<FleetBoard> board_; ///< shared with the fleet node
};

} // namespace cider::core

#endif // CIDER_CORE_FLEET_H
