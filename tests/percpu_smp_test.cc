/**
 * @file
 * SMP per-CPU layer tests: the determinism gate (N-host-thread runs
 * report bit-identical virtual time to the serialized 1-thread run),
 * executor work stealing, the SchedRail collapse, per-host-thread
 * trap bookkeeping under concurrent traps and readers, and the
 * state slots' racing first use and single-owner contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/cost_clock.h"
#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "kernel/percpu.h"
#include "kernel/sched_rail.h"
#include "kernel/trap_stats.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"

namespace cider::kernel {
namespace {

/**
 * An abl_hotpath-shaped job: zalloc/zfree churn plus VFS-style fixed
 * charges on a private clock. Deterministic: the virtual cost depends
 * only on (index, iterations), never on host interleaving.
 */
std::uint64_t
hotpathJob(ducttape::ZoneT *zone, unsigned index, unsigned iters)
{
    CostClock clock;
    CostScope scope(clock);
    for (unsigned k = 0; k < iters + index * 7; ++k) {
        void *p = ducttape::zalloc(zone);
        EXPECT_NE(p, nullptr);
        ducttape::zfree(zone, p);
        charge(40 + (index % 3) * 10);
    }
    return clock.now();
}

/** Run kJobs hotpath jobs on a pool with @p host_threads workers. */
SmpEpoch
runSweep(PerCpu &cpus, unsigned host_threads)
{
    ducttape::ZoneT *zone = ducttape::zinit(96, "smp.test");
    ExecutorPool pool(cpus, host_threads);
    constexpr unsigned kJobs = 24;
    for (unsigned i = 0; i < kJobs; ++i)
        pool.submit([zone, i] { return hotpathJob(zone, i, 200); },
                    "hotpath");
    SmpEpoch epoch = pool.runAll();
    ducttape::zone_drain_cpu_caches(zone);
    ducttape::zdestroy(zone);
    return epoch;
}

TEST(PerCpuSmpTest, DeterminismGateVirtualTimeBitIdenticalAcrossHosts)
{
    PerCpu cpus(4);
    SmpEpoch serial = runSweep(cpus, 1);
    ASSERT_GT(serial.mergedNs, 0u);
    ASSERT_EQ(serial.jobs, 24u);

    for (unsigned hosts : {2u, 4u, 8u}) {
        SmpEpoch parallel = runSweep(cpus, hosts);
        EXPECT_EQ(parallel.mergedNs, serial.mergedNs)
            << hosts << " host threads";
        EXPECT_EQ(parallel.perCpuNs, serial.perCpuNs)
            << hosts << " host threads";
        EXPECT_EQ(parallel.jobs, serial.jobs);
    }
}

TEST(PerCpuSmpTest, WorkStealingDrainsAPinnedShard)
{
    PerCpu cpus(4);
    ExecutorPool pool(cpus, 4);
    constexpr unsigned kJobs = 32;
    std::atomic<unsigned> ran{0};
    for (unsigned i = 0; i < kJobs; ++i)
        pool.submitOn(0, [&ran] {
            ran.fetch_add(1, std::memory_order_relaxed);
            CostClock clock;
            CostScope scope(clock);
            charge(100);
            // A little host work keeps the shard non-empty long
            // enough for peers to steal (not required for
            // correctness).
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            return clock.now();
        });
    SmpEpoch epoch = pool.runAll();
    EXPECT_EQ(ran.load(), kJobs);
    EXPECT_EQ(epoch.jobs, kJobs);
    // Virtual attribution follows the pinned CPU, not the stealing
    // host worker.
    EXPECT_EQ(epoch.perCpuNs[0], kJobs * 100u);
    EXPECT_EQ(epoch.perCpuNs[1], 0u);
    EXPECT_EQ(epoch.mergedNs, kJobs * 100u);
}

/** The /proc/cider/percpu text of @p k. */
std::string
percpuText(Kernel &k)
{
    Thread &reader = k.createProcess("reader").mainThread();
    SyscallResult r = k.sysOpen(reader, "/proc/cider/percpu", oflag::RDONLY);
    Bytes buf;
    if (r.ok())
        k.sysRead(reader, static_cast<Fd>(r.value), buf, 4096);
    return std::string(buf.begin(), buf.end());
}

TEST(PerCpuSmpTest, OneHostThreadStealsNothing)
{
    // Six round-robin jobs over four CPUs on one host thread: it takes
    // jobs from every CPU, but no other worker owns any of them.
    Kernel k(hw::DeviceProfile::nexus7());
    ASSERT_EQ(k.percpu().count(), 4u);
    ExecutorPool pool(k.percpu(), 1);
    for (int i = 0; i < 6; ++i)
        pool.submit([] { return std::uint64_t{10}; });
    SmpEpoch epoch = pool.runAll();
    EXPECT_EQ(epoch.jobs, 6u);
    EXPECT_EQ(epoch.steals, 0u);
    std::string text = percpuText(k);
    for (const char *cpu : {"cpu0 ", "cpu1 ", "cpu2 ", "cpu3 "}) {
        std::size_t at = text.find(cpu);
        ASSERT_NE(at, std::string::npos) << text;
        std::string line = text.substr(at, text.find('\n', at) - at);
        EXPECT_NE(line.find("stolen 0"), std::string::npos) << line;
    }
    EXPECT_NE(text.find("cpu1  epoch 20 ns  trap-merges 0  jobs 2  "
                        "stolen 0\n"),
              std::string::npos)
        << text;
}

TEST(PerCpuSmpTest, CpusWithoutAnOwningWorkerAreNeverStolen)
{
    // Two host threads over four CPUs: workers 0 and 1 own cpu0 and
    // cpu1; jobs on cpu2 and cpu3 belong to no worker, so whoever
    // takes them steals nothing.
    Kernel k(hw::DeviceProfile::nexus7());
    ExecutorPool pool(k.percpu(), 2);
    for (int i = 0; i < 16; ++i)
        pool.submitOn(2 + i % 2, [] { return std::uint64_t{5}; });
    SmpEpoch epoch = pool.runAll();
    EXPECT_EQ(epoch.jobs, 16u);
    EXPECT_EQ(epoch.steals, 0u);
    EXPECT_EQ(k.percpu().slot(2).jobsStolen.load(), 0u);
    EXPECT_EQ(k.percpu().slot(3).jobsStolen.load(), 0u);
}

TEST(PerCpuSmpTest, ArmedRailCollapsesToSubmitOrder)
{
    SchedRail &rail = SchedRail::global();
    rail.disarm();
    SchedOptions opt;
    opt.policy = SchedPolicy::Random;
    opt.seed = 7;
    rail.arm(opt);

    PerCpu cpus(4);
    ExecutorPool pool(cpus, 4);
    std::vector<unsigned> order;
    constexpr unsigned kJobs = 12;
    for (unsigned i = 0; i < kJobs; ++i)
        pool.submit([&order, i] {
            order.push_back(i); // safe: the collapse is sequential
            return std::uint64_t{10};
        });
    SmpEpoch epoch = pool.runAll();
    rail.disarm();

    ASSERT_EQ(order.size(), kJobs);
    // The collapse runs jobs sequentially in global submit order on
    // the calling host thread (an n-way merge over the FIFO shards).
    std::vector<unsigned> expect(kJobs);
    for (unsigned i = 0; i < kJobs; ++i)
        expect[i] = i;
    EXPECT_EQ(order, expect);
    EXPECT_EQ(epoch.jobs, kJobs);
    // Virtual merge rules are unchanged by the collapse.
    EXPECT_EQ(epoch.mergedNs, (kJobs / 4) * 10u);
}

TEST(PerCpuSmpTest, TrapBoundaryMergesIntoBoundCpuEpoch)
{
    Kernel k(hw::DeviceProfile::nexus7());
    ASSERT_EQ(k.percpu().count(), 4u);
    Process &p = k.createProcess("smp");
    Thread &t = p.mainThread();

    {
        CpuScope cpu(k.percpu(), 2);
        ThreadScope scope(t);
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(k.trap(t, TrapClass::LinuxSyscall,
                               sysno::NULL_SYSCALL, makeArgs())
                            .ok());
    }

    EXPECT_EQ(k.trapStats().cpuTraps(2).merges, 5u);
    EXPECT_EQ(k.percpu().mergedEpochNs(), t.clock().now());
    EXPECT_EQ(k.trapStats().cpuTraps(0).merges, 0u);

    // The /proc node serves the same numbers.
    std::string dump = k.percpu().dump();
    EXPECT_NE(dump.find("percpu: 4 simulated cpus"), std::string::npos);
    EXPECT_NE(dump.find("trap-merges 5"), std::string::npos);
}

/** Syscall-number pieces of the trap storm below. */
constexpr int kBsdNull = xnu::xnuno::NULL_SYSCALL;
constexpr int kNull = sysno::NULL_SYSCALL;
constexpr int kClose = sysno::CLOSE;
constexpr int kSetPersona = sysno::SET_PERSONA;

/** True when @p r is, field for field, one of the records the storm
 *  writes; a record mixing two writes fails one of the checks. */
bool
isStormRecord(const TraceRecord &r)
{
    const bool bsd = r.cls == TrapClass::XnuBsd;
    const bool lnx = r.cls == TrapClass::LinuxSyscall;
    if (r.kind == TraceRecord::Kind::Trap)
        return r.toPersona == Persona::Android && r.latencyNs > 0 &&
               ((bsd && r.persona == Persona::Ios && r.nr == kBsdNull &&
                 r.err == 0 && r.value == 0) ||
                (lnx && r.persona == Persona::Android && r.nr == kNull &&
                 r.err == 0 && r.value == 0) ||
                (lnx && r.persona == Persona::Android && r.nr == kClose &&
                 r.err == lnx::BADF && r.value == -1));
    const bool toAndroid = r.persona == Persona::Ios &&
                           r.toPersona == Persona::Android;
    const bool toIos = r.persona == Persona::Android &&
                       r.toPersona == Persona::Ios;
    if (r.nr == kSetPersona)
        return r.latencyNs > 0 && r.err == 0 &&
               ((bsd && toAndroid) || (lnx && toIos));
    return r.nr == 0 && lnx && r.latencyNs == 0 && r.err == 0 &&
           r.value == 0 && (toAndroid || toIos);
}

TEST(PerCpuSmpTest, ShardedTrapsStayExactUnderConcurrentTraceReads)
{
    Kernel k(hw::DeviceProfile::nexus7());
    xnu::MachIpc ipc;
    xnu::PsynchSubsystem psynch;
    persona::PersonaManager mgr(k, ipc, psynch);
    mgr.install();
    TrapStats &stats = k.trapStats();

    constexpr unsigned kHosts = 4;
    constexpr std::uint64_t kRounds = 2000;
    // Per round: a BSD null trap, set_persona out, a Linux null trap,
    // a failing close, set_persona back, and two direct switches.
    constexpr std::uint64_t kRecordsPerRound = 7;
    std::vector<Thread *> guests;
    for (unsigned h = 0; h < kHosts; ++h)
        guests.push_back(
            &k.createProcess("smp.trap" + std::to_string(h), Persona::Ios)
                 .mainThread());

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> reads{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::vector<TraceRecord> trace = stats.trace();
            for (std::size_t i = 0; i < trace.size(); ++i) {
                if (!isStormRecord(trace[i]))
                    torn.fetch_add(1, std::memory_order_relaxed);
                // One ring (consecutive seq; every host thread holds
                // its own shard throughout): time only moves forward.
                if (i > 0 && trace[i].seq == trace[i - 1].seq + 1 &&
                    trace[i].timeNs <= trace[i - 1].timeNs)
                    torn.fetch_add(1, std::memory_order_relaxed);
            }
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // Each host thread sums the latency of its traps per entry from
    // its own clock: the counters' totalNs must come out exact.
    struct Latency
    {
        std::uint64_t bsdNull = 0, null = 0, close = 0;
    };
    std::vector<Latency> latency(kHosts);
    // No host thread finishes before all have trapped, so none hands
    // its shard on to another: four shards, each with one writer.
    std::latch trapping(kHosts);
    std::vector<std::thread> hosts;
    for (unsigned h = 0; h < kHosts; ++h)
        hosts.emplace_back([&, h] {
            Thread &t = *guests[h];
            ThreadScope scope(t);
            auto trap = [&](TrapClass cls, int nr, SyscallArgs args,
                            bool ok) {
                std::uint64_t before = t.clock().now();
                EXPECT_EQ(k.trap(t, cls, nr, std::move(args)).ok(), ok);
                return t.clock().now() - before;
            };
            for (std::uint64_t i = 0; i < kRounds; ++i) {
                if (i == 1)
                    trapping.arrive_and_wait();
                latency[h].bsdNull +=
                    trap(TrapClass::XnuBsd, kBsdNull, makeArgs(), true);
                trap(TrapClass::XnuBsd, kSetPersona,
                     makeArgs(static_cast<std::uint64_t>(Persona::Android)),
                     true);
                latency[h].null +=
                    trap(TrapClass::LinuxSyscall, kNull, makeArgs(), true);
                latency[h].close +=
                    trap(TrapClass::LinuxSyscall, kClose,
                         makeArgs(std::int64_t{9999}), false);
                trap(TrapClass::LinuxSyscall, kSetPersona,
                     makeArgs(static_cast<std::uint64_t>(Persona::Ios)),
                     true);
                mgr.setPersona(t, Persona::Android);
                mgr.setPersona(t, Persona::Ios);
            }
        });
    for (std::thread &h : hosts)
        h.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    const std::uint64_t n = kHosts * kRounds;
    EXPECT_EQ(stats.traceRecorded(), n * kRecordsPerRound);
    std::vector<TraceRecord> trace = stats.trace();
    EXPECT_EQ(trace.size(), kHosts * TrapStats::kTraceCapacity);
    for (const TraceRecord &r : trace)
        EXPECT_TRUE(isStormRecord(r));

    Latency total;
    for (const Latency &l : latency) {
        total.bsdNull += l.bsdNull;
        total.null += l.null;
        total.close += l.close;
    }
    struct Row
    {
        const char *table;
        int nr;
        std::uint64_t errors;
        std::uint64_t totalNs;
    };
    for (const Row &row : {Row{"xnu-bsd", kBsdNull, 0, total.bsdNull},
                           Row{"linux", kNull, 0, total.null},
                           Row{"linux", kClose, n, total.close}}) {
        SCOPED_TRACE(std::string(row.table) + " nr " +
                     std::to_string(row.nr));
        SyscallStat s = stats.stat(row.table, row.nr);
        EXPECT_EQ(s.calls, n);
        std::uint64_t hist_sum = 0;
        for (std::uint64_t b : s.hist)
            hist_sum += b;
        EXPECT_EQ(hist_sum, n);
        EXPECT_EQ(s.errors, row.errors);
        EXPECT_EQ(s.totalNs, row.totalNs);
        EXPECT_EQ(stats.calls(row.table, row.nr), n);
        EXPECT_EQ(stats.errors(row.table, row.nr), row.errors);
        EXPECT_EQ(stats.totalNs(row.table, row.nr), row.totalNs);
    }
    EXPECT_EQ(stats.tableCalls("xnu-bsd"), n);
    EXPECT_EQ(stats.tableCalls("linux"), 2 * n);
    EXPECT_EQ(stats.personaSwitches(), 4 * n);
    EXPECT_EQ(mgr.personaSwitches(), 4 * n);
    EXPECT_EQ(stats.shardCount(), kHosts);
}

TEST(PerCpuSmpTest, ShardedTrapsTwoHostThreadsOnOneCpuSlot)
{
    // A stolen job binds a second host thread to its CPU slot: both
    // threads' trap-boundary merges land in that CPU's totals.
    Kernel k(hw::DeviceProfile::nexus7());
    Thread *guests[2] = {&k.createProcess("slot.a").mainThread(),
                         &k.createProcess("slot.b").mainThread()};
    constexpr int kTraps[2] = {300, 500};
    std::uint64_t clocks[2] = {0, 0};
    std::latch start(2);
    std::vector<std::thread> hosts;
    for (int h = 0; h < 2; ++h)
        hosts.emplace_back([&, h] {
            CpuScope cpu(k.percpu(), 1);
            Thread &t = *guests[h];
            ThreadScope scope(t);
            start.arrive_and_wait();
            for (int i = 0; i < kTraps[h]; ++i)
                EXPECT_TRUE(k.trap(t, TrapClass::LinuxSyscall, kNull,
                                   makeArgs())
                                .ok());
            clocks[h] = t.clock().now();
        });
    for (std::thread &h : hosts)
        h.join();

    const std::uint64_t epoch = std::max(clocks[0], clocks[1]);
    ASSERT_GT(epoch, 0u);
    EXPECT_EQ(k.trapStats().cpuTraps(1).merges, 800u);
    EXPECT_EQ(k.trapStats().cpuTraps(1).epochNs, epoch);
    EXPECT_EQ(k.percpu().mergedEpochNs(), epoch);

    Thread &reader = k.createProcess("reader").mainThread();
    SyscallResult r =
        k.sysOpen(reader, "/proc/cider/percpu", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    Bytes buf;
    ASSERT_TRUE(k.sysRead(reader, static_cast<Fd>(r.value), buf, 4096).ok());
    std::string text(buf.begin(), buf.end());
    EXPECT_NE(text.find("cpu1  epoch " + std::to_string(epoch) +
                        " ns  trap-merges 800  jobs 0  stolen 0\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("cpu0  epoch 0 ns  trap-merges 0"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("merged epoch: " + std::to_string(epoch) + " ns"),
              std::string::npos)
        << text;
}

TEST(PerCpuSmpTest, ShardedTrapsShortLivedHostThreadsReuseAShard)
{
    Kernel k(hw::DeviceProfile::nexus7());
    TrapStats &stats = k.trapStats();
    Thread &t = k.createProcess("short").mainThread();
    {
        ThreadScope scope(t);
        ASSERT_TRUE(
            k.trap(t, TrapClass::LinuxSyscall, kNull, makeArgs()).ok());
    }
    // Each exiting host thread hands its shard back, counts kept, and
    // the next one adopts it.
    constexpr std::uint64_t kHosts = 200;
    for (std::uint64_t i = 0; i < kHosts; ++i) {
        std::thread host([&] {
            ThreadScope scope(t);
            EXPECT_TRUE(
                k.trap(t, TrapClass::LinuxSyscall, kNull, makeArgs()).ok());
        });
        host.join();
    }
    EXPECT_EQ(stats.calls("linux", kNull), kHosts + 1);
    EXPECT_EQ(stats.tableCalls("linux"), kHosts + 1);
    EXPECT_EQ(stats.traceRecorded(), kHosts + 1);
    EXPECT_LE(stats.shardCount(), 2u);
}

TEST(PerCpuSmpTest, ExtMapConcurrentLazyGetResolvesToOneSlot)
{
    Kernel k(hw::DeviceProfile::nexus7());
    constexpr unsigned kHosts = 8;
    constexpr unsigned kRounds = 16;
    constexpr auto kSlots = static_cast<unsigned>(ProcessSlot::Count);
    auto slot = [](unsigned s) { return static_cast<ProcessSlot>(s); };
    // One race is lost or won within a few hundred nanoseconds, so
    // each round races a fresh process's slots again.
    for (unsigned round = 0; round < kRounds; ++round) {
        Process &p = k.createProcess("shared");
        std::vector<std::array<int *, kSlots>> seen(kHosts);
        std::latch start(kHosts);
        std::vector<std::thread> hosts;
        for (unsigned h = 0; h < kHosts; ++h)
            hosts.emplace_back([&, h] {
                // Each host starts at a different slot, so every
                // slot's first use races with the hosts that reach it
                // next.
                start.arrive_and_wait();
                for (unsigned n = 0; n < kSlots; ++n) {
                    unsigned s = (h + n) % kSlots;
                    seen[h][s] = &p.ext().get<int>(slot(s));
                }
            });
        for (std::thread &t : hosts)
            t.join();

        std::set<int *> distinct;
        for (unsigned s = 0; s < kSlots; ++s) {
            for (unsigned h = 1; h < kHosts; ++h)
                ASSERT_EQ(seen[h][s], seen[0][s])
                    << "round " << round << ", slot " << s;
            distinct.insert(seen[0][s]);
        }
        EXPECT_EQ(distinct.size(), kSlots);
    }
}

TEST(PerCpuSmpTest, ExtMapLookupsRacingInsertsSeeTheirOwnValues)
{
    Kernel k(hw::DeviceProfile::nexus7());
    struct Tag
    {
        int id = -1;
    };
    constexpr auto kSlots = static_cast<unsigned>(ProcessSlot::Count);
    constexpr unsigned kReaders = kSlots / 2;
    constexpr unsigned kRounds = 16;
    auto slot = [](unsigned s) { return static_cast<ProcessSlot>(s); };
    for (unsigned round = 0; round < kRounds; ++round) {
        Process &p = k.createProcess("shared");
        for (unsigned s = 0; s < kReaders; ++s)
            p.ext().get<Tag>(slot(s)).id = static_cast<int>(s);

        // Each reader looks its own slot up while a further host
        // thread makes the first use of every other slot.
        std::atomic<bool> inserted{false};
        std::atomic<unsigned> wrong{0};
        std::latch start(kReaders + 1);
        std::vector<std::thread> hosts;
        for (unsigned r = 0; r < kReaders; ++r)
            hosts.emplace_back([&, r] {
                Tag *own = &p.ext().get<Tag>(slot(r));
                start.arrive_and_wait();
                do {
                    Tag &got = p.ext().get<Tag>(slot(r));
                    if (&got != own || got.id != static_cast<int>(r))
                        wrong.fetch_add(1, std::memory_order_relaxed);
                } while (!inserted.load(std::memory_order_acquire));
            });
        hosts.emplace_back([&] {
            start.arrive_and_wait();
            for (unsigned s = kReaders; s < kSlots; ++s) {
                p.ext().get<Tag>(slot(s)).id = 1000 + static_cast<int>(s);
                std::this_thread::yield();
            }
            inserted.store(true, std::memory_order_release);
        });
        for (std::thread &t : hosts)
            t.join();

        EXPECT_EQ(wrong.load(), 0u) << "round " << round;
        for (unsigned s = kReaders; s < kSlots; ++s)
            EXPECT_EQ(p.ext().get<Tag>(slot(s)).id, 1000 + static_cast<int>(s))
                << "round " << round << ", slot " << s;

        // clear() drops every value: the next get() starts afresh.
        p.ext().clear();
        for (unsigned s = 0; s < kSlots; ++s)
            EXPECT_EQ(p.ext().get<Tag>(slot(s)).id, -1) << "slot " << s;
    }
}

using PerCpuSmpDeathTest = ::testing::Test;

TEST(PerCpuSmpDeathTest, CrossHostExtAccessPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Kernel k(hw::DeviceProfile::nexus7());
            Process &p = k.createProcess("victim");
            Thread &t = p.mainThread();
            std::atomic<bool> ready{false};
            std::atomic<bool> done{false};
            std::thread holder([&] {
                ThreadScope scope(t);
                ready.store(true);
                while (!done.load())
                    std::this_thread::yield();
            });
            while (!ready.load())
                std::this_thread::yield();
            // Another host thread touching a scoped thread's ext()
            // violates the single-owner contract.
            t.ext();
            done.store(true);
            holder.join();
        },
        "cross-host");
}

} // namespace
} // namespace cider::kernel
