#include "ducttape/xnu_api.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/fault_rail.h"
#include "kernel/percpu.h"
#include "kernel/sched_rail.h"

namespace cider::ducttape {

namespace {

// Fixed per-primitive costs in virtual ns, standing in for the
// domestic primitive each XNU call is translated to. These run only
// inside the Cider-enabled Nexus 7 kernel, so they are expressed at
// that device's clock.
constexpr std::uint64_t kLockNs = 30;
constexpr std::uint64_t kUnlockNs = 25;
constexpr std::uint64_t kZallocNs = 70;
constexpr std::uint64_t kZfreeNs = 55;
constexpr std::uint64_t kKallocNs = 90;
constexpr std::uint64_t kWakeupNs = 60;
constexpr std::uint64_t kBlockNs = 120;

kernel::SchedRail &
schedRail()
{
    return kernel::SchedRail::global();
}

/** True when the calling host thread is a guest of an armed rail. */
bool
onSchedRail()
{
    return kernel::SchedRail::global().engaged() &&
           kernel::SchedRail::guestMarker() != nullptr;
}

/** Per-host-thread identity for logical lock ownership. Rail guests
 *  are identified by their guest marker so ownership survives the
 *  guest migrating across rail decisions on one host thread. */
thread_local char t_hostLockMark;

const void *
lockOwnerMark()
{
    if (const void *g = kernel::SchedRail::guestMarker())
        return g;
    return &t_hostLockMark;
}

} // namespace

struct LckMtx
{
    std::mutex mu;
    /** Logical owner (lockOwnerMark of the holder), for the
     *  waitq_wait held-lock assertion and the rail's logical
     *  acquisition path. */
    std::atomic<const void *> owner{nullptr};
    /** Lock-order graph label; must outlive the lock (literals). */
    const char *label = "lck";
};

namespace {

/** Logical release of @p held by a rail guest: no host mutex is
 *  involved, contenders parked on the lock become schedulable. */
void
railReleaseHeld(LckMtx *held)
{
    held->owner.store(nullptr, std::memory_order_relaxed);
    schedRail().wakeupChannel(held, /*all=*/true);
}

/** Logical (re-)acquisition of @p held by a rail guest; contention
 *  is a rail-visible block. May unwind via SchedRailAbort. */
void
railAcquireHeld(LckMtx *held)
{
    kernel::SchedRail &rail = schedRail();
    while (held->owner.load(std::memory_order_relaxed) != nullptr)
        rail.blockOn(held, "lck.contended");
    held->owner.store(lockOwnerMark(), std::memory_order_relaxed);
}

/** The waitq_wait held-lock contract (see xnu_api.h). */
void
assertHeldOwned(const LckMtx *held, const char *who)
{
    if (held->owner.load(std::memory_order_relaxed) != lockOwnerMark())
        cider_panic("waitq_wait(", who ? who : "?",
                    "): caller does not hold the wait mutex — "
                    "predicate would be evaluated without the lock");
}

} // namespace

LckMtx *
lck_mtx_alloc_init(const char *label)
{
    charge(kKallocNs);
    auto *m = new LckMtx();
    if (label && *label)
        m->label = label;
    return m;
}

void
lck_mtx_lock(LckMtx *m)
{
    charge(kLockNs);
    // Record the acquisition attempt (lockdep-style) before blocking:
    // the held-before edge of an AB/BA inversion must land in the
    // graph even when this acquire deadlocks and never succeeds.
    kernel::LockOrderGraph &g = schedRail().lockGraph();
    if (g.tracking())
        g.acquired(m, m->label);
    if (onSchedRail()) {
        railAcquireHeld(m);
    } else {
        m->mu.lock();
        m->owner.store(lockOwnerMark(), std::memory_order_relaxed);
    }
}

void
lck_mtx_unlock(LckMtx *m)
{
    charge(kUnlockNs);
    kernel::LockOrderGraph &g = schedRail().lockGraph();
    if (g.tracking())
        g.released(m);
    if (onSchedRail()) {
        railReleaseHeld(m);
    } else {
        m->owner.store(nullptr, std::memory_order_relaxed);
        m->mu.unlock();
    }
}

void
lck_mtx_free(LckMtx *m)
{
    delete m;
}

/**
 * A zalloc zone. Elements are carved out of slab chunks and recycled
 * through an intrusive singly-linked free-list (the link lives in the
 * first word of each free element), so only the refill path touches
 * the domestic heap.
 *
 * SMP decomposition (XNU's zone CPU caching): the global free-list is
 * now the *depot*; each simulated CPU owns a magazine — a private
 * free-list with its own small lock — that fills from and drains to
 * the depot in kMagazineBatch-sized transfers. A host thread bound to
 * a CPU (kernel::CpuScope) touches only its magazine lock in steady
 * state; unbound callers use the depot directly, which is the
 * original single-lock behaviour. Accounting counters are relaxed
 * atomics so the magazine fast path never takes the depot lock. The
 * mutexes are mutable so const accessors (zone_stats) can lock
 * without casting away constness.
 */
struct ZoneT
{
    std::string name;
    std::size_t elemSize = 0;
    std::size_t slotSize = 0;   ///< elemSize rounded up for the link
    std::size_t chunkElems = 0; ///< elements per slab refill

    /// @{ Accounting (relaxed atomics; exact under any interleaving).
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> magHits{0};
    std::atomic<std::uint64_t> magFills{0};
    std::atomic<std::uint64_t> magDrains{0};
    /// @}
    std::atomic<std::int64_t> failAfter{-1};

    /** Depot: the global free-list plus its backing slabs. */
    mutable std::mutex mu;
    void *freeList = nullptr;
    std::vector<void *> slabs;

    /** One magazine per simulated CPU. Lock order: magazine before
     *  depot (fill/drain take the depot lock while holding the
     *  magazine lock, never the reverse). */
    struct Magazine
    {
        std::mutex mu;
        void *freeList = nullptr;
        std::size_t depth = 0;
    };
    mutable std::array<Magazine, kernel::kMaxCpus> mags;
};

namespace {

/** Intrusive link stored in the first word of a free element. */
void *&
freeLink(void *elem)
{
    return *static_cast<void **>(elem);
}

/** Scoped lock-order note for a non-LckMtx lock (zone mutexes), so
 *  zone locks participate in the deadlock-cycle graph. Free when
 *  tracking is off: one relaxed load each way. */
class LockOrderNote
{
  public:
    LockOrderNote(const void *lock, const char *label) : lock_(lock)
    {
        kernel::LockOrderGraph &g = schedRail().lockGraph();
        noted_ = g.tracking();
        if (noted_)
            g.acquired(lock, label);
    }

    ~LockOrderNote()
    {
        if (noted_)
            schedRail().lockGraph().released(lock_);
    }

    LockOrderNote(const LockOrderNote &) = delete;
    LockOrderNote &operator=(const LockOrderNote &) = delete;

  private:
    const void *lock_;
    bool noted_;
};

} // namespace

namespace {

/** Registry of live zones for process-wide leak accounting. Leaky
 *  singletons: zones created by static-lifetime subsystems may be
 *  destroyed after any registry with normal storage duration. */
std::mutex &
zoneRegistryMu()
{
    static auto *mu = new std::mutex;
    return *mu;
}

std::vector<ZoneT *> &
zoneRegistry()
{
    static auto *r = new std::vector<ZoneT *>;
    return *r;
}

} // namespace

ZoneT *
zinit(std::size_t elem_size, const char *zone_name)
{
    auto *z = new ZoneT();
    z->name = zone_name ? zone_name : "?";
    z->elemSize = elem_size;
    // Slots must hold the free-list link and keep every element
    // max-aligned within the slab.
    std::size_t slot = std::max(elem_size, sizeof(void *));
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    z->slotSize = (slot + kAlign - 1) / kAlign * kAlign;
    // Refill roughly a page at a time, as XNU zones do.
    z->chunkElems = std::clamp<std::size_t>(4096 / z->slotSize, 8, 256);
    {
        std::lock_guard<std::mutex> lock(zoneRegistryMu());
        zoneRegistry().push_back(z);
    }
    return z;
}

void
zdestroy(ZoneT *z)
{
    {
        std::lock_guard<std::mutex> lock(zoneRegistryMu());
        auto &reg = zoneRegistry();
        reg.erase(std::remove(reg.begin(), reg.end(), z), reg.end());
    }
    for (void *slab : z->slabs)
        std::free(slab);
    delete z;
}

ZoneRegistryTotals
zone_registry_totals()
{
    ZoneRegistryTotals totals;
    std::lock_guard<std::mutex> lock(zoneRegistryMu());
    for (const ZoneT *z : zoneRegistry()) {
        ZoneStats s = zone_stats(z);
        ++totals.zones;
        totals.liveElements += s.live;
        totals.magazineCached += s.magazineCached;
    }
    return totals;
}

void
zone_registry_each(
    const std::function<void(const char *name, const ZoneStats &)> &fn)
{
    std::lock_guard<std::mutex> lock(zoneRegistryMu());
    for (const ZoneT *z : zoneRegistry())
        fn(z->name.c_str(), zone_stats(z));
}

namespace {

/** Elements moved per depot<->magazine transfer (XNU magazine size
 *  order of magnitude; small enough that depot accounting tests can
 *  exercise multiple fills). */
constexpr std::size_t kMagazineBatch = 32;

/** Pop one element from the depot free-list, carving a fresh slab
 *  when dry. Requires z->mu held. Null only on host-heap exhaustion. */
void *
depotPopLocked(ZoneT *z)
{
    if (!z->freeList) {
        void *slab = std::malloc(z->slotSize * z->chunkElems);
        if (!slab)
            return nullptr;
        z->slabs.push_back(slab);
        char *base = static_cast<char *>(slab);
        for (std::size_t i = z->chunkElems; i-- > 0;) {
            void *elem = base + i * z->slotSize;
            freeLink(elem) = z->freeList;
            z->freeList = elem;
        }
    }
    void *elem = z->freeList;
    z->freeList = freeLink(elem);
    return elem;
}

} // namespace

void *
zalloc(ZoneT *z)
{
    charge(kZallocNs);
    // Both injection paths run before the allocs increment, so they
    // key on the logical allocation index whichever free-list (CPU
    // magazine or depot) would have served the element.
    std::int64_t fail_after = z->failAfter.load(std::memory_order_relaxed);
    if (fail_after >= 0 &&
        static_cast<std::int64_t>(
            z->allocs.load(std::memory_order_relaxed)) >= fail_after) {
        z->failed.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    if (CIDER_FAULT_POINT("zone.alloc")) {
        z->failed.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    int cpu = kernel::PerCpu::currentCpu();
    if (cpu >= 0) {
        // CPU-bound fast path: this CPU's magazine, refilled from the
        // depot in batches.
        ZoneT::Magazine &mag = z->mags[static_cast<std::size_t>(cpu)];
        std::lock_guard<std::mutex> lock(mag.mu);
        LockOrderNote note(&mag.mu, z->name.c_str());
        if (mag.freeList) {
            z->magHits.fetch_add(1, std::memory_order_relaxed);
        } else {
            std::lock_guard<std::mutex> depot(z->mu);
            LockOrderNote depot_note(&z->mu, z->name.c_str());
            for (std::size_t i = 0; i < kMagazineBatch; ++i) {
                void *elem = depotPopLocked(z);
                if (!elem)
                    break;
                freeLink(elem) = mag.freeList;
                mag.freeList = elem;
                ++mag.depth;
            }
            if (mag.freeList)
                z->magFills.fetch_add(1, std::memory_order_relaxed);
        }
        if (!mag.freeList) {
            z->failed.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        void *elem = mag.freeList;
        mag.freeList = freeLink(elem);
        --mag.depth;
        z->allocs.fetch_add(1, std::memory_order_relaxed);
        z->live.fetch_add(1, std::memory_order_relaxed);
        return elem;
    }
    // Unbound: the depot directly (the original single-lock path).
    std::lock_guard<std::mutex> lock(z->mu);
    LockOrderNote note(&z->mu, z->name.c_str());
    void *elem = depotPopLocked(z);
    if (!elem) {
        z->failed.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    z->allocs.fetch_add(1, std::memory_order_relaxed);
    z->live.fetch_add(1, std::memory_order_relaxed);
    return elem;
}

void
zfree(ZoneT *z, void *elem)
{
    if (!elem)
        return;
    charge(kZfreeNs);
    if (z->live.load(std::memory_order_relaxed) == 0)
        // invariant-only: double-free by kernel code
        cider_panic("zfree underflow in zone ", z->name);
    z->frees.fetch_add(1, std::memory_order_relaxed);
    z->live.fetch_sub(1, std::memory_order_relaxed);
    int cpu = kernel::PerCpu::currentCpu();
    if (cpu >= 0) {
        ZoneT::Magazine &mag = z->mags[static_cast<std::size_t>(cpu)];
        std::lock_guard<std::mutex> lock(mag.mu);
        LockOrderNote note(&mag.mu, z->name.c_str());
        freeLink(elem) = mag.freeList;
        mag.freeList = elem;
        ++mag.depth;
        if (mag.depth >= 2 * kMagazineBatch) {
            // Overflow: drain a batch back to the depot so one CPU
            // freeing what another allocates cannot strand memory.
            std::lock_guard<std::mutex> depot(z->mu);
            LockOrderNote depot_note(&z->mu, z->name.c_str());
            for (std::size_t i = 0; i < kMagazineBatch; ++i) {
                void *e = mag.freeList;
                mag.freeList = freeLink(e);
                --mag.depth;
                freeLink(e) = z->freeList;
                z->freeList = e;
            }
            z->magDrains.fetch_add(1, std::memory_order_relaxed);
        }
        return;
    }
    std::lock_guard<std::mutex> lock(z->mu);
    LockOrderNote note(&z->mu, z->name.c_str());
    freeLink(elem) = z->freeList;
    z->freeList = elem;
}

ZoneStats
zone_stats(const ZoneT *z)
{
    ZoneStats st;
    st.allocs = z->allocs.load(std::memory_order_relaxed);
    st.frees = z->frees.load(std::memory_order_relaxed);
    st.live = z->live.load(std::memory_order_relaxed);
    st.failed = z->failed.load(std::memory_order_relaxed);
    st.elemSize = z->elemSize;
    st.magazineHits = z->magHits.load(std::memory_order_relaxed);
    st.magazineFills = z->magFills.load(std::memory_order_relaxed);
    st.magazineDrains = z->magDrains.load(std::memory_order_relaxed);
    std::uint64_t cached = 0;
    for (ZoneT::Magazine &mag : z->mags) {
        std::lock_guard<std::mutex> lock(mag.mu);
        cached += mag.depth;
    }
    st.magazineCached = cached;
    return st;
}

void
zone_set_fail_after(ZoneT *z, std::int64_t n)
{
    z->failAfter.store(n, std::memory_order_relaxed);
}

void
zone_drain_cpu_caches(ZoneT *z)
{
    for (ZoneT::Magazine &mag : z->mags) {
        std::lock_guard<std::mutex> lock(mag.mu);
        if (!mag.freeList)
            continue;
        LockOrderNote note(&mag.mu, z->name.c_str());
        std::lock_guard<std::mutex> depot(z->mu);
        LockOrderNote depot_note(&z->mu, z->name.c_str());
        while (mag.freeList) {
            void *e = mag.freeList;
            mag.freeList = freeLink(e);
            freeLink(e) = z->freeList;
            z->freeList = e;
        }
        mag.depth = 0;
        z->magDrains.fetch_add(1, std::memory_order_relaxed);
    }
}

void *
xnu_kalloc(std::size_t size)
{
    charge(kKallocNs);
    if (CIDER_FAULT_POINT("kalloc.alloc"))
        return nullptr;
    return std::malloc(size);
}

void
xnu_kfree(void *p, std::size_t)
{
    charge(kZfreeNs);
    std::free(p);
}

struct WaitQ
{
    std::condition_variable_any cv;
    /** Wakeup epoch: bumped on every wakeup_one/all so timed waiters
     *  can tell an idle grace interval from one where wakeups flowed
     *  to other waiters (see waitq_wait_deadline). */
    std::atomic<std::uint64_t> wakeEpoch{0};
};

WaitQ *
waitq_alloc()
{
    return new WaitQ();
}

void
waitq_free(WaitQ *wq)
{
    delete wq;
}

namespace {

std::atomic<std::uint64_t> blockGraceMs{100};

/**
 * Watchdog bookkeeping for parked threads. Only waits that actually
 * block register here (the uncontended wake-up path never takes this
 * lock), and all timestamps are host-side, so the watchdog is
 * invisible to virtual time.
 */
struct BlockedEntry
{
    const char *site;
    std::uint64_t virtualNs;
    std::chrono::steady_clock::time_point since;
};

/**
 * The watchdog registry is hash-sharded (decomposed from one global
 * mutex) so N host threads parking/unparking concurrently contend
 * only within a bucket, waitq-hash style.
 */
struct BlockedShard
{
    std::mutex mu;
    std::map<const void *, BlockedEntry> map;
};

constexpr std::size_t kBlockedShards = 16;

std::array<BlockedShard, kBlockedShards> &
blockedShards()
{
    static std::array<BlockedShard, kBlockedShards> shards;
    return shards;
}

BlockedShard &
blockedShardFor(const void *key)
{
    auto h = reinterpret_cast<std::uintptr_t>(key);
    // Stack addresses share their low (alignment) and high bits; fold
    // the middle into the bucket index.
    h ^= h >> 9;
    return blockedShards()[(h >> 4) & (kBlockedShards - 1)];
}

/** RAII registration of one parked thread, keyed by stack address. */
class BlockScope
{
  public:
    explicit BlockScope(const char *who)
    {
        BlockedShard &shard = blockedShardFor(this);
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.map[this] = BlockedEntry{
            who, virtualNow(), std::chrono::steady_clock::now()};
    }

    ~BlockScope()
    {
        BlockedShard &shard = blockedShardFor(this);
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.map.erase(this);
    }
};

} // namespace

void
waitq_wait(WaitQ *wq, LckMtx *held, const std::function<bool()> &pred,
           const char *who)
{
    charge(kBlockNs);
    assertHeldOwned(held, who);
    if (onSchedRail()) {
        kernel::SchedRail &rail = schedRail();
        while (!pred()) {
            railReleaseHeld(held);
            rail.blockOn(wq, who ? who : "waitq");
            railAcquireHeld(held);
        }
        return;
    }
    if (pred())
        return;
    BlockScope scope(who);
    wq->cv.wait(held->mu, pred);
    // Other threads cycled the lock while we were parked; restore the
    // logical owner now that the condvar handed the mutex back.
    held->owner.store(lockOwnerMark(), std::memory_order_relaxed);
}

bool
waitq_wait_deadline(WaitQ *wq, LckMtx *held,
                    const std::function<bool()> &pred,
                    std::uint64_t deadline_ns, const char *who)
{
    charge(kBlockNs);
    assertHeldOwned(held, who);
    if (pred())
        return true;
    std::uint64_t now = virtualNow();
    if (now >= deadline_ns)
        return false;
    if (onSchedRail()) {
        // Deadline expiry is an explicit rail decision: the guest
        // stays schedulable while parked, and the scheduler choosing
        // it IS the timeout firing. A wakeup that lands first makes
        // the guest runnable without firing; a wakeup consumed by
        // another waiter just re-parks us with the deadline pending —
        // so the grace re-arm race cannot occur on the rail by
        // construction.
        kernel::SchedRail &rail = schedRail();
        for (;;) {
            railReleaseHeld(held);
            bool fired =
                rail.blockOnDeadline(wq, who ? who : "waitq");
            railAcquireHeld(held);
            if (pred())
                return true;
            if (fired) {
                charge(deadline_ns - now);
                return false;
            }
        }
    }
    BlockScope scope(who);
    // A parked thread's virtual clock cannot advance, so deadline
    // expiry is decided by host-side grace intervals: once a full
    // interval passes with no wakeup activity on this waitq, none is
    // coming, and the wait times out with the caller's clock advanced
    // exactly to the deadline — host scheduling jitter never leaks
    // into virtual time. An interval that *did* see wakeups (consumed
    // by other waiters, or merely slow to propagate on a loaded host)
    // re-arms the window, so a legitimate wakeup that precedes the
    // virtual deadline is never misreported as a timeout just because
    // the host is busy.
    auto grace = std::chrono::milliseconds(
        blockGraceMs.load(std::memory_order_relaxed));
    for (;;) {
        std::uint64_t epoch =
            wq->wakeEpoch.load(std::memory_order_relaxed);
        if (wq->cv.wait_for(held->mu, grace, pred)) {
            held->owner.store(lockOwnerMark(),
                              std::memory_order_relaxed);
            return true;
        }
        if (wq->wakeEpoch.load(std::memory_order_relaxed) == epoch)
            break; // a truly idle interval: expire
    }
    held->owner.store(lockOwnerMark(), std::memory_order_relaxed);
    charge(deadline_ns - now);
    return false;
}

void
waitq_set_block_grace_ms(std::uint64_t ms)
{
    blockGraceMs.store(ms ? ms : 1, std::memory_order_relaxed);
}

std::uint64_t
waitq_block_grace_ms()
{
    return blockGraceMs.load(std::memory_order_relaxed);
}

std::vector<BlockedWait>
waitq_blocked_waits(double min_host_ms)
{
    std::vector<BlockedWait> out;
    auto now = std::chrono::steady_clock::now();
    for (BlockedShard &shard : blockedShards()) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[key, e] : shard.map) {
            double ms = std::chrono::duration<double, std::milli>(
                            now - e.since)
                            .count();
            if (ms < min_host_ms)
                continue;
            BlockedWait w;
            w.site = e.site;
            w.virtualNs = e.virtualNs;
            w.hostBlockedMs = ms;
            out.push_back(w);
        }
    }
    return out;
}

void
waitq_wakeup_all(WaitQ *wq)
{
    charge(kWakeupNs);
    wq->wakeEpoch.fetch_add(1, std::memory_order_relaxed);
    kernel::SchedRail &rail = schedRail();
    if (rail.engaged())
        rail.wakeupChannel(wq, /*all=*/true);
    wq->cv.notify_all();
}

void
waitq_wakeup_one(WaitQ *wq)
{
    charge(kWakeupNs);
    wq->wakeEpoch.fetch_add(1, std::memory_order_relaxed);
    kernel::SchedRail &rail = schedRail();
    if (rail.engaged())
        rail.wakeupChannel(wq, /*all=*/false);
    wq->cv.notify_one();
}

std::uint64_t
mach_absolute_time()
{
    return virtualNow();
}

void
registerDuctTapeSymbols(SymbolRegistry &registry)
{
    // Domestic primitives the adaptation layer is built on.
    for (const char *sym :
         {"mutex_lock", "mutex_unlock", "kmalloc", "kfree", "wake_up",
          "schedule", "wait_event", "ktime_get", "printk"})
        registry.declare(sym, Zone::Domestic);

    // External XNU symbols the foreign code imports, each mapped onto
    // its domestic implementation through the duct-tape zone.
    registry.mapExternal("lck_mtx_lock", "mutex_lock");
    registry.mapExternal("lck_mtx_unlock", "mutex_unlock");
    registry.mapExternal("lck_mtx_alloc_init", "kmalloc");
    registry.mapExternal("lck_mtx_free", "kfree");
    registry.mapExternal("zinit", "kmalloc");
    registry.mapExternal("zalloc", "kmalloc");
    registry.mapExternal("zfree", "kfree");
    registry.mapExternal("kalloc", "kmalloc");
    registry.mapExternal("thread_block", "wait_event");
    registry.mapExternal("thread_wakeup", "wake_up");
    registry.mapExternal("assert_wait", "wait_event");
    registry.mapExternal("mach_absolute_time", "ktime_get");

    // Names both kernels define: declaring the foreign copy after the
    // domestic one forces the registry to remap it (step 3).
    registry.declare("panic", Zone::Domestic);
    registry.declare("panic", Zone::Foreign);
    registry.declare("current_thread", Zone::Domestic);
    registry.declare("current_thread", Zone::Foreign);
}

} // namespace cider::ducttape
