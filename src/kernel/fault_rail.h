/**
 * @file
 * FaultRail: deterministic, kernel-wide fault injection.
 *
 * A global registry of named fault sites threaded through every layer
 * that can fail under resource pressure or corrupt input: zalloc /
 * kalloc, VFS resolution and creation, Mach IPC port and right
 * allocation, message send/receive, psynch waits, the binfmt loaders,
 * and signal delivery. Each site is interned once (a dense SiteId)
 * and consulted with one relaxed atomic load on the hot path:
 *
 *     static const auto site = FaultRail::global().site("zone.alloc");
 *     if (FaultRail::global().shouldFail(site))
 *         return nullptr;
 *
 * Trigger policies are deterministic and virtual-time aware:
 *
 *  - nth(n)      fire exactly once, on the n-th hit since arming
 *                (1-based);
 *  - every(k)    fire on every k-th hit since arming;
 *  - prob(p,s)   seeded Bernoulli draw per hit (base::Rng SplitMix64);
 *  - window(a,b) fire while the caller's virtual time is in [a, b).
 *
 * Any policy can additionally be scoped to one process: a scoped site
 * only trips when the calling host thread is simulating a thread of
 * that pid, so a fault storm can target the app under test while
 * system services keep running clean. Policy counting happens after
 * the scope filter: a scoped nth(n) fires on the n-th hit *by that
 * process*, regardless of how much other traffic crosses the site.
 *
 * Injection is free when disabled: with no site armed and tracking
 * off, shouldFail() is a single relaxed load and never touches the
 * virtual clock, so registering every site leaves benchmark virtual
 * time series bit-identical. Hit/trip counters are kept only while
 * the rail is active (armed or tracking).
 *
 * The accumulated state is readable as text from the
 * /proc/cider/faults device node, mirroring /proc/cider/trapstats,
 * including a hung-wait watchdog section listing threads blocked in
 * duct-taped wait queues longer than a host threshold.
 */

#ifndef CIDER_KERNEL_FAULT_RAIL_H
#define CIDER_KERNEL_FAULT_RAIL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/rng.h"
#include "kernel/types.h"

namespace cider::kernel {

/** Trigger policy of one armed fault site. */
struct FaultSpec
{
    enum class Kind
    {
        Never,       ///< registered but disarmed
        Nth,         ///< fire once, on the n-th hit (1-based)
        EveryK,      ///< fire on every k-th hit
        Probability, ///< seeded Bernoulli draw per hit
        Window,      ///< fire while virtualNow() in [startNs, endNs)
    };

    Kind kind = Kind::Never;
    std::uint64_t n = 0;     ///< Nth / EveryK parameter
    double p = 0.0;          ///< Probability parameter
    std::uint64_t seed = 0;  ///< Probability stream seed
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Scope to one process; -1 fires for any caller. */
    Pid pid = -1;
};

/** Counter snapshot for one site (test/dump introspection). */
struct FaultSiteStats
{
    std::string name;
    bool armed = false;
    FaultSpec spec;
    std::uint64_t hits = 0;  ///< evaluations while the rail was active
    std::uint64_t trips = 0; ///< evaluations that injected a failure
};

class FaultRail
{
  public:
    using SiteId = std::uint32_t;

    /** The process-wide rail every subsystem threads its sites to. */
    static FaultRail &global();

    /**
     * Intern @p name (idempotent) and return its dense id. Call sites
     * cache the result in a function-local static, so registration
     * happens once per site regardless of traffic.
     */
    SiteId site(const char *name);

    /**
     * Hot-path probe: true when the site should inject a failure now.
     * One relaxed load when nothing is armed; never charges virtual
     * time in either direction.
     */
    bool
    shouldFail(SiteId id)
    {
        if (activity_.load(std::memory_order_relaxed) == 0)
            return false;
        return shouldFailSlow(id);
    }

    /// @{ Arming. Sites are named; arming an unregistered name
    /// registers it (storms can arm before the first hit).
    void arm(const std::string &site_name, const FaultSpec &spec);
    void armNth(const std::string &site_name, std::uint64_t n,
                Pid pid = -1);
    void armEveryK(const std::string &site_name, std::uint64_t k,
                   Pid pid = -1);
    void armProbability(const std::string &site_name, double p,
                        std::uint64_t seed, Pid pid = -1);
    void armWindow(const std::string &site_name, std::uint64_t start_ns,
                   std::uint64_t end_ns, Pid pid = -1);
    void disarm(const std::string &site_name);
    void disarmAll();
    /// @}

    /**
     * Count hits even while nothing is armed (site-traffic view for
     * /proc/cider/faults). Off by default: tracking makes the probe
     * take the slow path, so it costs host atomics per hit.
     */
    void setTracking(bool on);

    /// @{ Introspection.
    std::uint64_t hits(const std::string &site_name) const;
    std::uint64_t trips(const std::string &site_name) const;
    /** Total trips across all sites (storm accounting). */
    std::uint64_t totalTrips() const;
    std::vector<FaultSiteStats> snapshot() const;
    /// @}

    /** Zero hit/trip counters; leaves arming untouched. */
    void resetCounters();

    /** Host-ms threshold for the hung-wait watchdog section. */
    void setWatchdogThresholdMs(double ms) { watchdogMs_ = ms; }

    /** The /proc/cider/faults text: site table + hung-wait report. */
    std::string dump() const;

  private:
    struct Site
    {
        std::string name;
        bool armed = false;
        FaultSpec spec;
        Rng rng{0}; ///< per-site SplitMix64 stream (Probability)
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> trips{0};
        /** Hits the armed policy actually saw: counted after the pid
         *  filter and zeroed at arm(), so Nth/EveryK fire on the n-th
         *  *matching* hit since arming — traffic from other processes
         *  or from before arming never consumes a policy slot. */
        std::uint64_t policyHits = 0;
    };

    FaultRail() = default;

    bool shouldFailSlow(SiteId id);
    Site *findLocked(const std::string &site_name);
    const Site *findLocked(const std::string &site_name) const;
    void bumpActivity(int delta);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Site>> sites_;
    /** armed-site count plus one while tracking; 0 = fast path. */
    std::atomic<std::uint32_t> activity_{0};
    std::uint32_t armedCount_ = 0;
    bool tracking_ = false;
    double watchdogMs_ = 1000.0;
};

/**
 * Shorthand for the cached-site probe. Expands to a function-local
 * static intern plus the one-load fast path.
 */
#define CIDER_FAULT_POINT(site_name)                                        \
    ([]() -> bool {                                                         \
        static const ::cider::kernel::FaultRail::SiteId cider_fs_id =      \
            ::cider::kernel::FaultRail::global().site(site_name);           \
        return ::cider::kernel::FaultRail::global().shouldFail(             \
            cider_fs_id);                                                   \
    }())

} // namespace cider::kernel

#endif // CIDER_KERNEL_FAULT_RAIL_H
