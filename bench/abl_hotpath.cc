/**
 * @file
 * Hot-path allocation & lookup bench.
 *
 * One row per optimised subsystem:
 *
 *  - zalloc: per-zone free-lists refilled in slab chunks;
 *  - Mach IPC: the flat generational port table + KMsg ring under a
 *    scattered RPC load over thousands of live ports;
 *  - VFS: dentry-cached dyld-style closure walks vs. the uncached
 *    walk (`setDentryCacheEnabled(false)`). This A/B stays because
 *    the uncached walk is also the dentry cache's test oracle.
 *
 * Each row reports BOTH clocks. Virtual ns is the simulation's
 * deterministic cost: the zalloc and IPC loops must charge exactly
 * the recorded constants below, and both VFS sides must charge the
 * same. Host ns is real wall-clock, measured with steady_clock over
 * the same loop, best of kReps runs. Results land in
 * BENCH_hotpath.json for CI artifact upload. The zalloc and IPC A/B
 * sides this bench once ran (a malloc-per-element zone mode and the
 * pre-optimisation Mach IPC) are retired; the repository's committed
 * BENCH_hotpath.json keeps their last measurement.
 *
 * A fourth section sweeps the SMP executor (kernel/percpu.h) over
 * 1/2/4/8 host threads running hotpath-shaped jobs, asserting the
 * merged virtual time is bit-identical at every size and reporting
 * host-side scaling in BENCH_smp.json. The >= 2.5x 4-thread speedup
 * gate only arms on machines with >= 4 host cores.
 */

#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/percpu.h"
#include "kernel/vfs.h"
#include "xnu/mach_ipc.h"

namespace cider::bench {
namespace {

constexpr int kReps = 5;

constexpr int kZallocRounds = 2000;
constexpr int kZallocBatch = 64;

constexpr int kIpcMessages = 100000;
/** Live ports in the space — an iOS app juggles thousands of Mach
 *  ports (one per XPC connection, dispatch source, CF run-loop
 *  source...), and the traffic pattern across them is scattered, not
 *  sequential. This is where a tree-shaped name table hurts. */
constexpr int kIpcPorts = 4096;

constexpr int kDylibs = 115;
constexpr int kWalks = 2000;

/** Virtual-time gates: what the zalloc and IPC loops charge, as
 *  recorded in the committed BENCH_hotpath.json. */
constexpr std::uint64_t kZallocVirtualNs = 16'000'000;
constexpr std::uint64_t kIpcVirtualNs = 146'700'000;

template <typename Fn>
double
hostNs(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/** Best-of-kReps host time plus the (identical every rep) virtual
 *  time of one rep. */
template <typename Fn>
std::pair<double, std::uint64_t>
measureBoth(Fn &&fn)
{
    double best_host = 0;
    std::uint64_t virt = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        std::uint64_t v = 0;
        double h = hostNs([&] { v = measureVirtual(fn); });
        if (rep == 0 || h < best_host)
            best_host = h;
        virt = v;
    }
    return {best_host, virt};
}

/** Batched zalloc/zfree churn on one zone: the free-list steady state. */
std::pair<double, std::uint64_t>
runZallocLoop()
{
    CostClock clock;
    CostScope scope(clock);
    ducttape::ZoneT *zone = ducttape::zinit(192, "bench.zone");
    void *ptrs[kZallocBatch];
    auto result = measureBoth([&] {
        for (int round = 0; round < kZallocRounds; ++round) {
            for (int i = 0; i < kZallocBatch; ++i)
                ptrs[i] = ducttape::zalloc(zone);
            for (int i = 0; i < kZallocBatch; ++i)
                ducttape::zfree(zone, ptrs[i]);
        }
    });
    ducttape::zdestroy(zone);
    return result;
}

/**
 * The Mach RPC steady state: a space holding kIpcPorts live ports,
 * send+receive scattered across them, every message carrying a
 * send-once reply right (as every real mach_msg RPC does) which the
 * receiver drops after use, and the message body recycled the way a
 * real server loop reuses its buffer. The reply right is the
 * allocation treadmill: each message makes the receiver's space coin
 * a name and then release it.
 */
std::pair<double, std::uint64_t>
runIpcLoop()
{
    CostClock clock;
    CostScope scope(clock);
    xnu::MachIpc ipc;
    auto space = ipc.createSpace();
    std::vector<xnu::mach_port_name_t> ports(kIpcPorts);
    for (auto &name : ports)
        if (ipc.portAllocate(*space, xnu::PortRight::Receive, &name) != 0)
            std::abort();
    xnu::mach_port_name_t reply_port = ports[0];
    Bytes body(64, 0xab);
    return measureBoth([&] {
        for (int i = 0; i < kIpcMessages; ++i) {
            // Fibonacci-hash index: deterministic but scattered, the
            // way real port traffic lands all over the name space.
            xnu::mach_port_name_t port =
                ports[1 + (static_cast<std::uint32_t>(i) *
                           2654435761u) %
                              (kIpcPorts - 1)];
            xnu::MachMessage msg;
            msg.header.remotePort = port;
            msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
            msg.header.localPort = reply_port;
            msg.header.localDisposition =
                xnu::MsgDisposition::MakeSendOnce;
            msg.header.msgId = i;
            msg.body = std::move(body);
            ipc.msgSend(*space, std::move(msg));
            xnu::MachMessage out;
            ipc.msgReceive(*space, port, out);
            // Drop the send-once reply right we just received.
            ipc.portDeallocate(*space, out.header.remotePort);
            // Steady state: the buffer circulates, no new heap.
            body = std::move(out.body);
        }
    });
}

double
improvementPct(double legacy, double optimised)
{
    return legacy > 0 ? (legacy - optimised) / legacy * 100.0 : 0;
}

// --------------------------------------------------------------------
// SMP sweep: the same hot-path shapes, run as ExecutorPool jobs over
// sharded per-CPU run queues at 1/2/4/8 host threads. Virtual time
// must be bit-identical at every size (the epoch-merge determinism
// gate); host time is the scaling result, reported in BENCH_smp.json.

constexpr unsigned kSmpVcpus = 4;
constexpr unsigned kSmpJobs = 16;
constexpr int kSmpRounds = 300;

/** One hotpath-shaped guest job: zalloc/kalloc churn on a private
 *  zone and clock. Cost depends only on the job index. */
std::uint64_t
smpJob(unsigned index)
{
    CostClock clock;
    CostScope scope(clock);
    ducttape::ZoneT *zone = ducttape::zinit(192, "smp.zone");
    void *ptrs[kZallocBatch];
    // Deliberately imbalanced (index-scaled) so the sweep exercises
    // work stealing, which must not perturb virtual attribution.
    int rounds = kSmpRounds + static_cast<int>(index) * 20;
    for (int round = 0; round < rounds; ++round) {
        for (int i = 0; i < kZallocBatch; ++i)
            ptrs[i] = ducttape::zalloc(zone);
        for (int i = 0; i < kZallocBatch; ++i)
            ducttape::zfree(zone, ptrs[i]);
        void *k = ducttape::xnu_kalloc(64 + (round % 4) * 32);
        ducttape::xnu_kfree(k, 64 + (round % 4) * 32);
    }
    ducttape::zone_drain_cpu_caches(zone);
    ducttape::zdestroy(zone);
    return clock.now();
}

/** Best-of-kReps host ns + the merged virtual epoch for one pool size.
 *  One pool serves every rep — the workers spawn on the first batch
 *  and are merely woken for the rest, so the sweep measures the
 *  persistent-pool steady state, not thread-spawn latency. */
std::pair<double, std::uint64_t>
runSmpSize(kernel::PerCpu &cpus, unsigned hosts)
{
    double best_host = 0;
    std::uint64_t merged = 0;
    kernel::ExecutorPool pool(cpus, hosts);
    for (int rep = 0; rep < kReps; ++rep) {
        for (unsigned j = 0; j < kSmpJobs; ++j)
            pool.submit([j] { return smpJob(j); }, "smp.hotpath");
        kernel::SmpEpoch epoch;
        double h = hostNs([&] { epoch = pool.runAll(); });
        if (rep == 0 || h < best_host)
            best_host = h;
        merged = epoch.mergedNs;
    }
    return {best_host, merged};
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    using namespace cider;
    using namespace cider::bench;
    (void)argc;
    (void)argv;
    setLogQuiet(true);

    BenchJson json("hotpath");
    int exit_code = 0;

    // Virtual-time gate for the zalloc and IPC rows.
    auto checkVirtual = [&exit_code](const char *name, double host,
                                     std::uint64_t virt,
                                     std::uint64_t expect) {
        std::printf("%-8s host %12.0f ns  virtual %llu (expect %llu)%s\n",
                    name, host, static_cast<unsigned long long>(virt),
                    static_cast<unsigned long long>(expect),
                    virt == expect ? "" : "  MISMATCH");
        if (virt != expect) {
            std::printf("FAIL: %s virtual time changed\n", name);
            exit_code = 1;
        }
    };

    // ---- zalloc free-lists and the Mach IPC flat table + ring -------
    auto [z_host, z_virt] = runZallocLoop();
    json.add("zalloc.freelist", static_cast<double>(z_virt), z_host);
    auto [ipc_host, ipc_virt] = runIpcLoop();
    json.add("ipc.flat+ring", static_cast<double>(ipc_virt), ipc_host);

    // ---- VFS: dentry-cached dyld walk vs uncached ------------------
    double vfs_host[2];
    std::uint64_t vfs_virt[2];
    for (int mode = 0; mode < 2; ++mode) {
        bool cached = (mode == 0);
        CostClock clock;
        CostScope scope(clock);
        kernel::Vfs vfs(hw::DeviceProfile::nexus7());
        vfs.setDentryCacheEnabled(cached);
        vfs.addOverlay("/Documents", "/data/ios/Documents");
        vfs.mkdirAll("/usr/lib/system");
        vfs.mkdirAll("/System/Library/Frameworks");
        std::vector<std::string> dylibs;
        for (int i = 0; i < kDylibs; ++i) {
            std::string path =
                (i % 2 ? "/usr/lib/system/libsys" +
                             std::to_string(i) + ".dylib"
                       : "/System/Library/Frameworks/fw" +
                             std::to_string(i) + ".dylib");
            vfs.writeFile(path, Bytes{1});
            dylibs.push_back(path);
        }
        auto [h, v] = measureBoth([&] {
            for (int walk = 0; walk < kWalks; ++walk)
                for (const std::string &path : dylibs) {
                    kernel::Lookup lk = vfs.lookup(path);
                    if (!lk.inode)
                        std::abort();
                }
        });
        vfs_host[mode] = h;
        vfs_virt[mode] = v;
        json.add(cached ? "vfs.dentry-cache" : "vfs.uncached",
                 static_cast<double>(v), h);
        if (cached) {
            kernel::DentryCacheStats st = vfs.dentryCacheStats();
            json.metric("cache_hits", static_cast<double>(st.hits));
            json.metric("cache_misses",
                        static_cast<double>(st.misses));
        }
    }

    // ---- verdicts --------------------------------------------------
    std::printf("\n=== hot-path rows (host wall-clock, best of %d) "
                "===\n",
                kReps);
    checkVirtual("zalloc", z_host, z_virt, kZallocVirtualNs);
    checkVirtual("ipc", ipc_host, ipc_virt, kIpcVirtualNs);
    double vfs_pct = improvementPct(vfs_host[1], vfs_host[0]);
    std::printf("%-8s uncached %12.0f ns  cached %12.0f ns  "
                "host win %5.1f%%  virtual %llu vs %llu%s\n",
                "vfs", vfs_host[1], vfs_host[0], vfs_pct,
                static_cast<unsigned long long>(vfs_virt[1]),
                static_cast<unsigned long long>(vfs_virt[0]),
                vfs_virt[1] == vfs_virt[0] ? " (identical)"
                                           : " (MISMATCH)");
    if (vfs_virt[1] != vfs_virt[0]) {
        std::printf("FAIL: vfs virtual time changed\n");
        exit_code = 1;
    }
    std::printf("target: vfs >= 25%% -> %s\n",
                vfs_pct >= 25.0 ? "PASS" : "FAIL");
    if (vfs_pct < 25.0)
        exit_code = 1;

    json.write();

    // ---- SMP executor sweep (separate BENCH_smp.json artifact) -----
    {
        BenchJson smp("smp");
        kernel::PerCpu cpus(kSmpVcpus);
        const unsigned sizes[] = {1, 2, 4, 8};
        double host[4];
        std::uint64_t virt[4];
        std::printf("\n=== SMP sweep (%u jobs over %u simulated cpus, "
                    "best of %d) ===\n",
                    kSmpJobs, kSmpVcpus, kReps);
        for (int i = 0; i < 4; ++i) {
            auto [h, v] = runSmpSize(cpus, sizes[i]);
            host[i] = h;
            virt[i] = v;
            smp.add("smp.hosts" + std::to_string(sizes[i]),
                    static_cast<double>(v), h);
            smp.metric("speedup_vs_1", host[0] > 0 ? host[0] / h : 0);
            std::printf("hosts=%u  host %12.0f ns  virtual %llu ns  "
                        "speedup %.2fx%s\n",
                        sizes[i], h,
                        static_cast<unsigned long long>(v),
                        host[0] > 0 ? host[0] / h : 0.0,
                        v == virt[0] ? "" : "  (VIRTUAL MISMATCH)");
        }
        // Determinism gate: the merged virtual time is a pure function
        // of the submitted work — any host-thread-count dependence is
        // a bug, on every machine.
        for (int i = 1; i < 4; ++i)
            if (virt[i] != virt[0]) {
                std::printf("FAIL: virtual time differs at hosts=%u "
                            "(%llu vs %llu)\n",
                            sizes[i],
                            static_cast<unsigned long long>(virt[i]),
                            static_cast<unsigned long long>(virt[0]));
                exit_code = 1;
            }
        // Scaling gate: only meaningful when the host machine really
        // has >= 4 cores to run the 4 workers on. CIDER_SMP_GATE=0
        // disables it (sanitizer jobs: TSan's instrumentation
        // serializes enough to make wall-clock scaling meaningless,
        // while the virtual-time gate above stays armed everywhere).
        double speedup4 = host[2] > 0 ? host[0] / host[2] : 0;
        unsigned hw = std::thread::hardware_concurrency();
        const char *gate_env = std::getenv("CIDER_SMP_GATE");
        if (gate_env && gate_env[0] == '0')
            hw = 0;
        if (hw >= 4) {
            std::printf("target: 4-host speedup >= 2.5x -> %s "
                        "(%.2fx on %u host cores)\n",
                        speedup4 >= 2.5 ? "PASS" : "FAIL", speedup4,
                        hw);
            if (speedup4 < 2.5)
                exit_code = 1;
        } else {
            std::printf("target: 4-host speedup skipped (%u host "
                        "cores; measured %.2fx)\n",
                        hw, speedup4);
        }
        smp.write();
    }
    return exit_code;
}
