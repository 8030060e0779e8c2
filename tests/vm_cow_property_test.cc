/**
 * @file
 * COW oracle property test: random fork/write/OOL storms run against
 * an eager-copy reference model.
 *
 * The model is the semantics COW is supposed to be invisible against:
 * every fork deep-copies the parent's memory, every OOL transfer
 * deep-copies the payload. The real side runs the CiderVM COW
 * machinery (entry aliasing, shadow objects, snapshot composition).
 * Image mappings (addMapping, which makes no backing object until one
 * is needed) sit next to allocated regions and go through the same
 * COW and non-COW writes, reads, forks, OOL snapshots and eager forks.
 * After every operation the two must agree byte-for-byte, and the
 * storm's virtual-time total must be bit-identical when the same seed
 * is replayed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "base/cost_clock.h"
#include "kernel/vm.h"

namespace cider::kernel {
namespace {

constexpr std::uint64_t kMaxProcs = 6;
constexpr int kOpsPerStorm = 240;

/** One simulated task: the real VmMap plus the eager reference. */
struct ModelProc
{
    std::unique_ptr<VmMap> real = std::make_unique<VmMap>();
    /** base -> full region contents (pages * kVmPageBytes bytes). */
    std::map<std::uint64_t, Bytes> ref;
    /** Bases of the regions that are image mappings. */
    std::set<std::uint64_t> images;
};

/** How often the storm drove each image-mapping path. */
struct ImageHits
{
    std::uint64_t cowWrites = 0;
    std::uint64_t plainWrites = 0;
    std::uint64_t reads = 0;
    std::uint64_t oolKept = 0;
    std::uint64_t oolMoved = 0;
};

struct Storm
{
    explicit Storm(std::uint64_t seed, bool eager_forks)
        : rng(seed), eager(eager_forks)
    {
        procs.push_back(std::make_unique<ModelProc>());
        procs.back()->real->bind(&vm);
        // Start with images mapped, so forks alias them from the
        // first operation on.
        for (int i = 0; i < 3; ++i)
            opMapImage();
    }

    std::uint64_t
    pick(std::uint64_t n)
    {
        return n ? rng() % n : 0;
    }

    ModelProc &
    anyProc()
    {
        return *procs[pick(procs.size())];
    }

    /** A (base, size) region of @p p, or size 0 if it has none. */
    std::pair<std::uint64_t, std::uint64_t>
    anyRegion(ModelProc &p)
    {
        if (p.ref.empty())
            return {0, 0};
        auto it = p.ref.begin();
        std::advance(it, static_cast<long>(pick(p.ref.size())));
        return {it->first, it->second.size()};
    }

    void
    opAllocate()
    {
        ModelProc &p = anyProc();
        std::uint64_t pages = 1 + pick(3);
        std::uint64_t base =
            p.real->allocate(vm.intern("anon" + std::to_string(serial++)),
                            pages);
        ASSERT_NE(base, 0u);
        p.ref[base] = Bytes(pages * kVmPageBytes, 0);
    }

    /** An image mapping: all pages resident, reading as zeros. */
    void
    opMapImage()
    {
        ModelProc &p = anyProc();
        std::uint64_t pages = 1 + pick(4);
        std::uint64_t base = p.real->addMapping(
            vm.intern("dylib:img" + std::to_string(serial++)), pages);
        p.ref[base] = Bytes(pages * kVmPageBytes, 0);
        p.images.insert(base);
    }

    void
    opWrite()
    {
        ModelProc &p = anyProc();
        auto [base, size] = anyRegion(p);
        if (!size)
            return opAllocate();
        if (p.images.count(base))
            ++(p.real->findByAddr(base)->cow ? hits.cowWrites
                                              : hits.plainWrites);
        std::uint64_t off = pick(size);
        std::uint64_t len =
            1 + pick(std::min<std::uint64_t>(size - off, 300));
        Bytes payload(len);
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(rng());
        ASSERT_EQ(p.real->write(base + off, payload), 0);
        std::copy(payload.begin(), payload.end(),
                  p.ref[base].begin() + static_cast<std::ptrdiff_t>(off));
    }

    void
    opReadCheck()
    {
        ModelProc &p = anyProc();
        auto [base, size] = anyRegion(p);
        if (!size)
            return;
        std::uint64_t off = pick(size);
        std::uint64_t len =
            1 + pick(std::min<std::uint64_t>(size - off, 300));
        Bytes got;
        ASSERT_EQ(p.real->read(base + off, len, &got), 0);
        hits.reads += p.images.count(base);
        Bytes want(p.ref[base].begin() + static_cast<std::ptrdiff_t>(off),
                   p.ref[base].begin() +
                       static_cast<std::ptrdiff_t>(off + len));
        ASSERT_EQ(got, want) << "read mismatch at base " << std::hex
                             << base << "+" << off;
    }

    void
    opFork()
    {
        if (procs.size() >= kMaxProcs)
            return opWrite();
        ModelProc &parent = anyProc();
        auto child = std::make_unique<ModelProc>();
        child->real->bind(&vm);
        child->real->forkFrom(*parent.real, eager);
        child->ref = parent.ref; // the oracle forks eagerly, always
        child->images = parent.images;
        procs.push_back(std::move(child));
    }

    void
    opOolTransfer()
    {
        ModelProc &src = anyProc();
        auto [base, size] = anyRegion(src);
        if (!size)
            return opAllocate();
        ModelProc &dst = anyProc();
        bool dealloc = pick(2) == 0;

        VmObjectPtr snap = src.real->snapshotForSend(base, dealloc);
        ASSERT_TRUE(snap);
        if (src.images.count(base))
            ++(dealloc ? hits.oolMoved : hits.oolKept);
        Bytes content = src.ref[base];
        if (dealloc) {
            src.ref.erase(base);
            src.images.erase(base);
        }
        std::uint64_t landed = dst.real->mapObject(
            vm.intern("ool" + std::to_string(serial++)), snap, VM_PROT_RW,
            /*cow=*/true, /*shared=*/false);
        dst.ref[landed] = std::move(content);
    }

    void
    opDeallocate()
    {
        ModelProc &p = anyProc();
        auto [base, size] = anyRegion(p);
        if (!size)
            return;
        ASSERT_TRUE(p.real->deallocate(base));
        p.ref.erase(base);
        p.images.erase(base);
    }

    void
    step()
    {
        switch (pick(11)) {
        case 0:
            return opAllocate();
        case 1:
            return opMapImage();
        case 2:
        case 3:
        case 4:
            return opWrite();
        case 5:
        case 6:
            return opReadCheck();
        case 7:
            return opFork();
        case 8:
        case 9:
            return opOolTransfer();
        default:
            return opDeallocate();
        }
    }

    /** Full-world compare: every region of every proc, real vs ref. */
    void
    verifyAll()
    {
        for (std::size_t i = 0; i < procs.size(); ++i) {
            for (const auto &[base, want] : procs[i]->ref) {
                Bytes got;
                ASSERT_EQ(procs[i]->real->read(base, want.size(), &got),
                          0)
                    << "proc " << i << " region " << std::hex << base;
                ASSERT_EQ(got, want)
                    << "proc " << i << " region " << std::hex << base;
            }
        }
    }

    /** Flattened world contents, for cross-run comparison. */
    std::vector<Bytes>
    digest()
    {
        std::vector<Bytes> all;
        for (auto &p : procs)
            for (const auto &[base, want] : p->ref) {
                Bytes got;
                p->real->read(base, want.size(), &got);
                all.push_back(std::move(got));
            }
        return all;
    }

    VmSubsystem vm;
    std::mt19937_64 rng;
    bool eager;
    std::uint64_t serial = 0;
    std::vector<std::unique_ptr<ModelProc>> procs;
    ImageHits hits;
};

struct StormResult
{
    std::uint64_t virtualNs = 0;
    std::vector<Bytes> digest;
    VmStats stats;
    ImageHits hits;
};

StormResult
runStorm(std::uint64_t seed, bool eager)
{
    CostClock clock;
    CostScope scope(clock);
    Storm storm(seed, eager);
    StormResult out;
    out.virtualNs = measureVirtual([&] {
        for (int i = 0; i < kOpsPerStorm; ++i) {
            storm.step();
            if (::testing::Test::HasFatalFailure())
                return;
        }
    });
    storm.verifyAll();
    out.digest = storm.digest();
    out.stats = storm.vm.statsSnapshot();
    out.hits = storm.hits;
    return out;
}

/** Every image-mapping path was driven at least once over @p runs. */
void
expectImagePathsCovered(const std::vector<StormResult> &runs)
{
    ImageHits sum;
    for (const StormResult &r : runs) {
        sum.cowWrites += r.hits.cowWrites;
        sum.plainWrites += r.hits.plainWrites;
        sum.reads += r.hits.reads;
        sum.oolKept += r.hits.oolKept;
        sum.oolMoved += r.hits.oolMoved;
    }
    EXPECT_GT(sum.cowWrites, 0u);
    EXPECT_GT(sum.plainWrites, 0u);
    EXPECT_GT(sum.reads, 0u);
    EXPECT_GT(sum.oolKept, 0u);
    EXPECT_GT(sum.oolMoved, 0u);
}

TEST(VmCowPropertyTest, CowStormMatchesEagerOracle)
{
    std::vector<StormResult> runs;
    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u}) {
        runs.push_back(runStorm(seed, /*eager=*/false));
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "seed " << seed;
        // The storm mix actually exercised the COW machinery.
        const VmStats &s = runs.back().stats;
        EXPECT_GT(s.cowForks + s.oolZeroCopySends, 0u) << "seed " << seed;
    }
    expectImagePathsCovered(runs);
}

TEST(VmCowPropertyTest, EagerStormMatchesOracleToo)
{
    // The A/B baseline obeys the same semantics (it IS the oracle's
    // strategy); this pins the lever itself, image mappings included.
    std::vector<StormResult> runs;
    for (std::uint64_t seed : {11u, 99u}) {
        runs.push_back(runStorm(seed, /*eager=*/true));
        ASSERT_FALSE(::testing::Test::HasFatalFailure())
            << "seed " << seed;
    }
    expectImagePathsCovered(runs);
}

TEST(VmCowPropertyTest, VirtualTimeIsDeterministicAcrossRuns)
{
    for (std::uint64_t seed : {7u, 1234u, 987654u}) {
        StormResult a = runStorm(seed, false);
        StormResult b = runStorm(seed, false);
        EXPECT_EQ(a.virtualNs, b.virtualNs) << "seed " << seed;
        EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
        EXPECT_EQ(a.stats.cowFaults, b.stats.cowFaults)
            << "seed " << seed;
        EXPECT_EQ(a.stats.brokenPages, b.stats.brokenPages)
            << "seed " << seed;
    }
}

TEST(VmCowPropertyTest, DistinctSeedsDiverge)
{
    // Sanity on the harness itself: different seeds produce different
    // storms (otherwise the sweep above proves nothing).
    StormResult a = runStorm(101, false);
    StormResult b = runStorm(202, false);
    EXPECT_NE(a.virtualNs, b.virtualNs);
}

} // namespace
} // namespace cider::kernel
