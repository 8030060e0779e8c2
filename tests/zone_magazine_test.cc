/**
 * @file
 * Per-CPU zone magazine tests: allocation storms pinned on distinct
 * simulated CPUs, depot/magazine accounting invariants, drain
 * behaviour, and preservation of the unbound (pre-SMP) zalloc path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "base/cost_clock.h"
#include "ducttape/xnu_api.h"
#include "kernel/percpu.h"

namespace cider::ducttape {
namespace {

class ZoneMagazineTest : public ::testing::Test
{
  protected:
    ZoneMagazineTest() : cpus_(4), zone_(zinit(64, "mag.test")) {}
    ~ZoneMagazineTest() override
    {
        zone_drain_cpu_caches(zone_);
        zdestroy(zone_);
    }

    kernel::PerCpu cpus_;
    ZoneT *zone_;
};

TEST_F(ZoneMagazineTest, UnboundPathStaysOnDepotWithNoMagazineTraffic)
{
    std::vector<void *> held;
    for (int i = 0; i < 100; ++i)
        held.push_back(zalloc(zone_));
    for (void *p : held)
        zfree(zone_, p);

    ZoneStats st = zone_stats(zone_);
    EXPECT_EQ(st.allocs, 100u);
    EXPECT_EQ(st.frees, 100u);
    EXPECT_EQ(st.live, 0u);
    EXPECT_EQ(st.magazineHits, 0u);
    EXPECT_EQ(st.magazineFills, 0u);
    EXPECT_EQ(st.magazineDrains, 0u);
    EXPECT_EQ(st.magazineCached, 0u);
}

TEST_F(ZoneMagazineTest, BoundAllocStormFillsAndHitsMagazine)
{
    kernel::CpuScope cpu(cpus_, 1);
    std::vector<void *> held;
    for (int i = 0; i < 200; ++i)
        held.push_back(zalloc(zone_));
    for (void *p : held)
        zfree(zone_, p);

    ZoneStats st = zone_stats(zone_);
    EXPECT_EQ(st.allocs, 200u);
    EXPECT_EQ(st.frees, 200u);
    EXPECT_EQ(st.live, 0u);
    EXPECT_GT(st.magazineFills, 0u);
    EXPECT_GT(st.magazineHits, 0u);
    // Steady-state churn is served from the magazine: after the first
    // fills, every alloc is a hit.
    EXPECT_GE(st.magazineHits + st.magazineFills, st.allocs);
    // The freed elements are parked in CPU 1's magazine (minus any
    // batches drained back to the depot).
    EXPECT_GT(st.magazineCached, 0u);

    zone_drain_cpu_caches(zone_);
    st = zone_stats(zone_);
    EXPECT_EQ(st.magazineCached, 0u);
    EXPECT_EQ(st.live, 0u);
}

TEST_F(ZoneMagazineTest, FreeHeavyStormDrainsBatchesToDepot)
{
    // Allocate unbound (from the depot), free bound: the magazine
    // depth climbs past the drain threshold and pushes batches back.
    std::vector<void *> held;
    for (int i = 0; i < 300; ++i)
        held.push_back(zalloc(zone_));
    {
        kernel::CpuScope cpu(cpus_, 2);
        for (void *p : held)
            zfree(zone_, p);
    }
    ZoneStats st = zone_stats(zone_);
    EXPECT_EQ(st.live, 0u);
    EXPECT_GT(st.magazineDrains, 0u);
    // Whatever did not drain is still parked in the magazine; the
    // total of parked + depot equals every element ever carved.
    zone_drain_cpu_caches(zone_);
    st = zone_stats(zone_);
    EXPECT_EQ(st.magazineCached, 0u);
}

TEST_F(ZoneMagazineTest, StormsOnDistinctCpusKeepAccountingBalanced)
{
    constexpr unsigned kCpus = 4;
    constexpr unsigned kRounds = 400;
    std::vector<std::thread> hosts;
    for (unsigned c = 0; c < kCpus; ++c)
        hosts.emplace_back([this, c] {
            kernel::CpuScope cpu(cpus_, c);
            CostClock clock;
            CostScope scope(clock);
            std::vector<void *> held;
            held.reserve(16);
            for (unsigned r = 0; r < kRounds; ++r) {
                // Bursty pattern: grow a working set, touch it, drop it.
                for (unsigned k = 0; k < 1 + (r % 16); ++k) {
                    void *p = zalloc(zone_);
                    ASSERT_NE(p, nullptr);
                    std::memset(p, static_cast<int>(c), 64);
                    held.push_back(p);
                }
                while (!held.empty()) {
                    zfree(zone_, held.back());
                    held.pop_back();
                }
            }
        });
    for (std::thread &h : hosts)
        h.join();

    ZoneStats st = zone_stats(zone_);
    EXPECT_EQ(st.allocs, st.frees);
    EXPECT_EQ(st.live, 0u);
    EXPECT_GT(st.magazineHits, 0u);

    // Draining returns every parked element to the depot; nothing is
    // lost or double-counted across the four magazines.
    zone_drain_cpu_caches(zone_);
    st = zone_stats(zone_);
    EXPECT_EQ(st.magazineCached, 0u);
    EXPECT_EQ(st.live, 0u);

    // The depot free-list must serve every element back out again
    // without handing the same pointer twice.
    std::set<void *> unique;
    std::vector<void *> all;
    for (int i = 0; i < 256; ++i) {
        void *p = zalloc(zone_);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(unique.insert(p).second) << "double-served element";
        all.push_back(p);
    }
    for (void *p : all)
        zfree(zone_, p);
}

TEST_F(ZoneMagazineTest, FailureInjectionReachesBoundCallers)
{
    kernel::CpuScope cpu(cpus_, 0);
    zone_set_fail_after(zone_, 5);
    std::vector<void *> held;
    for (int i = 0; i < 5; ++i) {
        void *p = zalloc(zone_);
        ASSERT_NE(p, nullptr);
        held.push_back(p);
    }
    // The magazine cannot mask injected failure: the gate is checked
    // before any cache is consulted.
    EXPECT_EQ(zalloc(zone_), nullptr);
    EXPECT_EQ(zone_stats(zone_).failed, 1u);
    zone_set_fail_after(zone_, -1);
    for (void *p : held)
        zfree(zone_, p);
}

TEST(KallocSmpTest, BoundKallocRoundTripsAcrossCpus)
{
    kernel::PerCpu cpus(4);
    constexpr unsigned kCpus = 4;
    std::vector<std::thread> hosts;
    for (unsigned c = 0; c < kCpus; ++c)
        hosts.emplace_back([&cpus, c] {
            kernel::CpuScope cpu(cpus, c);
            CostClock clock;
            CostScope scope(clock);
            std::vector<std::pair<void *, std::size_t>> live;
            for (unsigned r = 0; r < 2000; ++r) {
                std::size_t sz = 16u << (r % 5);
                void *p = xnu_kalloc(sz);
                ASSERT_NE(p, nullptr);
                std::memset(p, 0x5a, sz);
                if (r % 3 != 0)
                    xnu_kfree(p, sz);
                else
                    live.emplace_back(p, sz);
            }
            for (auto &[p, sz] : live)
                xnu_kfree(p, sz);
        });
    for (std::thread &h : hosts)
        h.join();
}

} // namespace
} // namespace cider::ducttape
