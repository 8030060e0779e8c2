/**
 * @file
 * The duct-tape adaptation layer: XNU kernel APIs implemented on the
 * domestic kernel's primitives.
 *
 * Foreign-zone subsystems (Mach IPC, psynch, I/O Kit — the src/xnu
 * and src/iokit trees) are written against these XNU interfaces
 * exactly as the real XNU sources are: lck_mtx_* locking, zalloc
 * zones, kalloc, wait queues with thread_block/wakeup semantics, and
 * mach_absolute_time. Each function charges a small fixed cost on the
 * active virtual clock, standing in for the translated domestic
 * primitive it rides on.
 *
 * The paper notes the adaptation layer built for one subsystem is
 * reusable for every later subsystem from the same foreign kernel —
 * which is literally true here: Mach IPC, psynch, and I/O Kit all
 * compile against this one header.
 */

#ifndef CIDER_DUCTTAPE_XNU_API_H
#define CIDER_DUCTTAPE_XNU_API_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ducttape/zones.h"

namespace cider::ducttape {

/// @{ Locking: XNU lck_mtx_* mapped onto domestic mutexes.
///
/// Every lock tracks its logical owner so waitq_wait can assert the
/// lck_mtx_sleep contract, and participates in the SchedRail
/// lock-order graph under its @p label (see kernel/sched_rail.h).
/// While a SchedRail episode is running, rail guests acquire the lock
/// purely logically — serialization comes from the rail, contention
/// becomes a scheduler-visible block, and an all-blocked state is
/// reported as a deadlock instead of hanging the host.
struct LckMtx;

LckMtx *lck_mtx_alloc_init(const char *label = nullptr);
void lck_mtx_lock(LckMtx *m);
void lck_mtx_unlock(LckMtx *m);
void lck_mtx_free(LckMtx *m);
/// @}

/// @{ Allocation: XNU zalloc zones mapped onto the domestic heap.
///
/// Zones amortise the domestic allocator the way real XNU does: each
/// zone keeps an intrusive free-list of fixed-size elements and
/// refills it in page-sized slab chunks, so the steady-state
/// zalloc/zfree cycle never touches the heap.
///
/// SMP structure (XNU-style CPU caching): when the calling host
/// thread is bound to a simulated CPU (kernel::CpuScope), zalloc and
/// zfree run against that CPU's private magazine — a small free-list
/// with its own lock — and only drain/refill against the global
/// depot free-list in batches. Unbound callers (every pre-SMP code
/// path) use the depot directly, preserving the original behaviour
/// bit for bit.
struct ZoneT;

/** Create an allocation zone for fixed-size elements. */
ZoneT *zinit(std::size_t elem_size, const char *zone_name);
void zdestroy(ZoneT *z);

/** Allocate an element; nullptr once failure injection triggers. */
void *zalloc(ZoneT *z);
void zfree(ZoneT *z, void *elem);

/** Accounting snapshot of a zone. */
struct ZoneStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t live = 0;
    std::uint64_t failed = 0;
    std::size_t elemSize = 0;
    /// @{ Per-CPU magazine traffic (zero while unbound).
    std::uint64_t magazineHits = 0;   ///< allocs served from a magazine
    std::uint64_t magazineFills = 0;  ///< depot -> magazine batches
    std::uint64_t magazineDrains = 0; ///< magazine -> depot batches
    std::uint64_t magazineCached = 0; ///< free elements parked in mags
    /// @}
};

ZoneStats zone_stats(const ZoneT *z);

/**
 * Process-wide totals over every zone currently alive (zinit'd and
 * not yet zdestroy'd). The fleet leak audit asserts liveElements
 * returns to its baseline after teardown; magazineCached is reported
 * separately because parked-but-free elements are not leaks.
 */
struct ZoneRegistryTotals
{
    std::size_t zones = 0;
    std::uint64_t liveElements = 0;
    std::uint64_t magazineCached = 0;
};

ZoneRegistryTotals zone_registry_totals();

/** Visit every live zone (name + stats) — leak-report detail. */
void zone_registry_each(
    const std::function<void(const char *name, const ZoneStats &)> &fn);

/** Failure injection: the (n+1)-th allocation onward returns null.
 *  Pass a negative value to disable. */
void zone_set_fail_after(ZoneT *z, std::int64_t n);

/**
 * Push every per-CPU magazine's elements back to the depot free-list
 * (XNU's zone_gc over one zone). Used by tests asserting depot
 * accounting and by memory-pressure paths.
 */
void zone_drain_cpu_caches(ZoneT *z);

void *xnu_kalloc(std::size_t size);
void xnu_kfree(void *p, std::size_t size);
/// @}

/// @{ Wait queues: assert_wait + thread_block mapped onto condvars.
struct WaitQ;

WaitQ *waitq_alloc();
void waitq_free(WaitQ *wq);

/**
 * Block the calling (host) thread on @p wq while holding @p held,
 * until @p pred becomes true after a wakeup. The mutex is released
 * while blocked and re-held on return — XNU's
 * lck_mtx_sleep/thread_block contract. @p who is an optional label
 * for the hung-wait watchdog (waitq_blocked_waits).
 *
 * Held-lock contract: the caller MUST own @p held on entry. @p pred
 * is only ever evaluated with @p held held — at the entry check and
 * at each wakeup — so predicates may read state guarded by @p held
 * without further synchronisation. Calling without owning @p held is
 * a kernel bug and panics (the entry assertion covers the entry
 * predicate evaluation; wakeup-path evaluations hold the lock by
 * construction of the condvar wait).
 */
void waitq_wait(WaitQ *wq, LckMtx *held, const std::function<bool()> &pred,
                const char *who = nullptr);

/**
 * Like waitq_wait, but give up once the caller's virtual clock would
 * pass @p deadline_ns. Virtual time cannot advance while a thread is
 * parked, so expiry is detected by a host-side grace interval (see
 * waitq_set_block_grace_ms): after each grace period with the
 * predicate still false, the wait expires, the caller's clock is
 * advanced to the deadline, and false is returned. Returns true when
 * the predicate became true first (the normal wakeup path). Under an
 * armed SchedRail the grace machinery is bypassed: expiry becomes an
 * explicit scheduling decision (the rail fires the timeout), with the
 * same virtual-time outcome. The waitq_wait held-lock contract
 * applies identically.
 */
bool waitq_wait_deadline(WaitQ *wq, LckMtx *held,
                         const std::function<bool()> &pred,
                         std::uint64_t deadline_ns,
                         const char *who = nullptr);

void waitq_wakeup_all(WaitQ *wq);
void waitq_wakeup_one(WaitQ *wq);

/**
 * Host milliseconds a deadline wait parks before concluding no wakeup
 * is coming. The default (100 ms) is far above any same-machine
 * wakeup latency; tests and the chaos bench lower it to keep timeout
 * storms fast. Deterministic in virtual time either way: the grace
 * interval only decides *when in host time* the timeout is taken, the
 * virtual clock always lands exactly on the deadline.
 */
void waitq_set_block_grace_ms(std::uint64_t ms);
std::uint64_t waitq_block_grace_ms();

/** One thread currently parked in a duct-taped wait queue. */
struct BlockedWait
{
    const char *site = nullptr;  ///< waitq_wait label (may be null)
    std::uint64_t virtualNs = 0; ///< waiter's virtual time at block
    double hostBlockedMs = 0.0;  ///< host wall time spent blocked
};

/**
 * Hung-wait watchdog: every wait blocked longer than @p min_host_ms
 * of host wall time. Purely host-side bookkeeping — querying it never
 * touches any virtual clock.
 */
std::vector<BlockedWait> waitq_blocked_waits(double min_host_ms);
/// @}

/** XNU mach_absolute_time mapped onto the virtual clock. */
std::uint64_t mach_absolute_time();

/**
 * Declare the adaptation layer in a symbol registry: domestic
 * primitives in the domestic zone, each imported XNU API as a
 * duct-tape symbol mapped onto its domestic target, plus the handful
 * of names both kernels define (which the registry must remap).
 */
void registerDuctTapeSymbols(SymbolRegistry &registry);

} // namespace cider::ducttape

#endif // CIDER_DUCTTAPE_XNU_API_H
