/**
 * @file
 * Duct-tape tests: the zone visibility matrix, conflict remapping,
 * external symbol mapping, the XNU API shims, and the kernel C++
 * runtime.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "base/cost_clock.h"
#include "ducttape/cxx_runtime.h"
#include "ducttape/xnu_api.h"
#include "ducttape/zones.h"

namespace cider::ducttape {
namespace {

// Paper section 4.2 step 1: domestic and foreign zones are mutually
// invisible; both see duct tape; duct tape sees everything.
TEST(Zones, VisibilityMatrix)
{
    EXPECT_TRUE(SymbolRegistry::zoneCanSee(Zone::Domestic,
                                           Zone::Domestic));
    EXPECT_TRUE(SymbolRegistry::zoneCanSee(Zone::Foreign, Zone::Foreign));
    EXPECT_FALSE(
        SymbolRegistry::zoneCanSee(Zone::Domestic, Zone::Foreign));
    EXPECT_FALSE(
        SymbolRegistry::zoneCanSee(Zone::Foreign, Zone::Domestic));
    EXPECT_TRUE(
        SymbolRegistry::zoneCanSee(Zone::Domestic, Zone::DuctTape));
    EXPECT_TRUE(
        SymbolRegistry::zoneCanSee(Zone::Foreign, Zone::DuctTape));
    EXPECT_TRUE(
        SymbolRegistry::zoneCanSee(Zone::DuctTape, Zone::Domestic));
    EXPECT_TRUE(
        SymbolRegistry::zoneCanSee(Zone::DuctTape, Zone::Foreign));
}

TEST(Zones, ConflictRemappedToUniqueLinkName)
{
    SymbolRegistry reg;
    const SymbolInfo &domestic = reg.declare("panic", Zone::Domestic);
    EXPECT_FALSE(domestic.remapped);
    const SymbolInfo &foreign = reg.declare("panic", Zone::Foreign);
    EXPECT_TRUE(foreign.remapped);
    EXPECT_NE(foreign.linkName, "panic");
    EXPECT_NE(foreign.linkName, domestic.linkName);
    EXPECT_EQ(reg.conflicts(), std::vector<std::string>{"panic"});
}

TEST(Zones, ResolvePrefersOwnZoneThenDuctTape)
{
    SymbolRegistry reg;
    reg.declare("helper", Zone::Domestic);
    reg.declare("helper", Zone::Foreign);

    const SymbolInfo *hit = nullptr;
    EXPECT_EQ(reg.resolve(Zone::Foreign, "helper", &hit), Access::Ok);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->zone, Zone::Foreign);

    EXPECT_EQ(reg.resolve(Zone::Domestic, "helper", &hit), Access::Ok);
    EXPECT_EQ(hit->zone, Zone::Domestic);
}

TEST(Zones, CrossZoneAccessDeniedAndRecorded)
{
    SymbolRegistry reg;
    reg.declare("mutex_lock", Zone::Domestic);
    EXPECT_EQ(reg.resolve(Zone::Foreign, "mutex_lock"), Access::Denied);
    ASSERT_EQ(reg.violations().size(), 1u);
    EXPECT_EQ(reg.violations()[0].from, Zone::Foreign);
    EXPECT_EQ(reg.violations()[0].symbol, "mutex_lock");
    EXPECT_EQ(reg.resolve(Zone::Foreign, "unknown"), Access::NotFound);
}

TEST(Zones, ExternalForeignSymbolsMapThroughDuctTape)
{
    SymbolRegistry reg;
    reg.declare("mutex_lock", Zone::Domestic);
    reg.mapExternal("lck_mtx_lock", "mutex_lock");

    // Foreign code resolves the XNU name through the duct-tape zone.
    const SymbolInfo *hit = nullptr;
    EXPECT_EQ(reg.resolve(Zone::Foreign, "lck_mtx_lock", &hit),
              Access::Ok);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->zone, Zone::DuctTape);
    EXPECT_EQ(hit->mappedTo, "mutex_lock");
}

TEST(Zones, StandardLayerRegistersCleanly)
{
    SymbolRegistry reg;
    registerDuctTapeSymbols(reg);
    EXPECT_GE(reg.symbolCount(), 20u);
    // panic/current_thread are defined by both kernels and must have
    // been conflict-remapped.
    EXPECT_GE(reg.conflicts().size(), 2u);
    // The canonical Mach IPC imports resolve from foreign code.
    for (const char *sym : {"lck_mtx_lock", "zalloc", "thread_block",
                            "kalloc", "mach_absolute_time"})
        EXPECT_EQ(reg.resolve(Zone::Foreign, sym), Access::Ok) << sym;
    // Foreign code still cannot touch domestic primitives directly.
    EXPECT_EQ(reg.resolve(Zone::Foreign, "kmalloc"), Access::Denied);
}

TEST(XnuApi, ZoneAllocatorAccountingAndFailureInjection)
{
    ZoneT *zone = zinit(64, "test.zone");
    void *a = zalloc(zone);
    void *b = zalloc(zone);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ZoneStats st = zone_stats(zone);
    EXPECT_EQ(st.allocs, 2u);
    EXPECT_EQ(st.live, 2u);

    zone_set_fail_after(zone, 2);
    EXPECT_EQ(zalloc(zone), nullptr);
    EXPECT_EQ(zone_stats(zone).failed, 1u);
    zone_set_fail_after(zone, -1);
    void *c = zalloc(zone);
    EXPECT_NE(c, nullptr);

    zfree(zone, a);
    zfree(zone, b);
    zfree(zone, c);
    EXPECT_EQ(zone_stats(zone).live, 0u);
    zdestroy(zone);
}

TEST(XnuApi, ZoneFreeListStressWithFailureInjection)
{
    // Alloc/free storms interleaved with failAfter arming. Every
    // element is written end to end while live, so a free-list link
    // scribbling over user data — or two live elements sharing
    // memory — trips the pattern check (and ASan, under the sanitize
    // preset).
    constexpr std::size_t kElem = 48;
    constexpr int kStorm = 128;
    ZoneT *zone = zinit(kElem, "test.stress");

    std::vector<void *> live;
    for (int round = 0; round < 50; ++round) {
        // Storm up: fill, stamping each element with its index.
        std::set<void *> unique;
        for (int i = 0; i < kStorm; ++i) {
            void *p = zalloc(zone);
            ASSERT_NE(p, nullptr);
            ASSERT_TRUE(unique.insert(p).second)
                << "zone handed out a live element twice";
            std::memset(p, 0x40 + (i % 64), kElem);
            live.push_back(p);
        }
        // Verify stamps survived the whole storm.
        for (int i = 0; i < kStorm; ++i) {
            auto *bytes = static_cast<unsigned char *>(
                live[live.size() - kStorm + i]);
            for (std::size_t b = 0; b < kElem; ++b)
                ASSERT_EQ(bytes[b], 0x40 + (i % 64));
        }
        // Storm down: free every other element, then the rest, so
        // the free list is rebuilt in a scrambled order.
        std::vector<void *> survivors;
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (i % 2)
                zfree(zone, live[i]);
            else
                survivors.push_back(live[i]);
        }
        live.swap(survivors);

        // Arm failure two allocations ahead: both succeed, the third
        // fails, and the failure leaves the free list coherent.
        ZoneStats st = zone_stats(zone);
        zone_set_fail_after(zone,
                            static_cast<std::int64_t>(st.allocs) + 2);
        void *x = zalloc(zone);
        void *y = zalloc(zone);
        ASSERT_NE(x, nullptr);
        ASSERT_NE(y, nullptr);
        EXPECT_EQ(zalloc(zone), nullptr);
        zone_set_fail_after(zone, -1);
        zfree(zone, x);
        zfree(zone, y);
    }
    for (void *p : live)
        zfree(zone, p);

    ZoneStats st = zone_stats(zone);
    EXPECT_EQ(st.live, 0u);
    EXPECT_EQ(st.allocs, st.frees);
    EXPECT_EQ(st.failed, 50u);
    zdestroy(zone);
}

TEST(XnuApi, LockAndWaitqBlockUntilPredicate)
{
    LckMtx *mtx = lck_mtx_alloc_init();
    WaitQ *wq = waitq_alloc();
    bool flag = false;

    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        lck_mtx_lock(mtx);
        flag = true;
        lck_mtx_unlock(mtx);
        waitq_wakeup_all(wq);
    });

    lck_mtx_lock(mtx);
    waitq_wait(wq, mtx, [&] { return flag; });
    EXPECT_TRUE(flag);
    lck_mtx_unlock(mtx);
    waker.join();
    waitq_free(wq);
    lck_mtx_free(mtx);
}

// The waitq_wait contract: the caller must own the wait mutex when
// the predicate is evaluated. Violating it is a kernel bug — the
// predicate would run without the lock it is supposed to be
// protected by — and panics instead of silently racing.
TEST(XnuApiDeathTest, WaitqWaitWithoutHeldMutexPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LckMtx *mtx = lck_mtx_alloc_init();
    WaitQ *wq = waitq_alloc();
    EXPECT_DEATH(
        waitq_wait(wq, mtx, [] { return true; }, "contract-check"),
        "does not hold the wait mutex");
    waitq_free(wq);
    lck_mtx_free(mtx);
}

TEST(XnuApi, PrimitivesChargeVirtualTime)
{
    CostClock clock;
    CostScope scope(clock);
    LckMtx *mtx = lck_mtx_alloc_init();
    lck_mtx_lock(mtx);
    lck_mtx_unlock(mtx);
    lck_mtx_free(mtx);
    EXPECT_GT(clock.now(), 0u);
}

TEST(CxxRuntime, HeapAccounting)
{
    KernelCxxRuntime rt;
    rt.noteConstruct(100);
    rt.noteConstruct(50);
    rt.noteDestroy(100);
    CxxHeapStats st = rt.stats();
    EXPECT_EQ(st.objectsConstructed, 2u);
    EXPECT_EQ(st.liveObjects, 1u);
    EXPECT_EQ(st.liveBytes, 50u);
}

TEST(CxxRuntime, StaticConstructorsRunAtBootThenImmediately)
{
    KernelCxxRuntime rt;
    int runs = 0;
    rt.addStaticConstructor("early", [&] { ++runs; });
    EXPECT_EQ(runs, 0); // deferred until boot
    rt.bootConstructors();
    EXPECT_EQ(runs, 1);
    rt.addStaticConstructor("late", [&] { ++runs; });
    EXPECT_EQ(runs, 2); // post-boot modules initialise immediately
    EXPECT_EQ(rt.constructorNames().size(), 2u);
}

} // namespace
} // namespace cider::ducttape
