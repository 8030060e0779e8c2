/**
 * @file
 * FleetSoak tests: the kill-storm teardown regression (no zombies, no
 * leaked ports/VmObjects/zone elements after storms), admission
 * backpressure, bounded retry, watchdog escalation, the railed
 * determinism contract and ledger, the /proc/cider/fleet surface (per
 * system, beside every other /proc/cider node), and the
 * percentile/audit/SLO helpers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cider_system.h"
#include "core/fleet.h"
#include "kernel/fault_rail.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/process.h"
#include "kernel/thread.h"

namespace cider::core {
namespace {

SystemOptions
ciderOptions()
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    return opts;
}

/** A small fleet profile that keeps sanitizer runs fast. */
FleetOptions
smallFleet()
{
    FleetOptions opts;
    opts.sessions = 24;
    opts.maxActive = 16;
    opts.seed = 7;
    opts.rounds = 3;
    return opts;
}

/** The 6-session soak the /proc tests publish. */
FleetOptions
tinyFleet()
{
    FleetOptions opts = smallFleet();
    opts.sessions = 6;
    opts.maxActive = 6;
    return opts;
}

/** Run @p body on the main thread of a fresh process, then reap it. */
template <typename Fn>
void
asReader(kernel::Kernel &k, Fn &&body)
{
    kernel::Process &proc =
        k.createProcess("proc.reader", kernel::Persona::Android);
    kernel::Thread &t = proc.mainThread();
    {
        kernel::ThreadScope scope(t);
        body(t);
        try {
            k.sysExit(t, 0);
        } catch (const kernel::ProcessExit &) {
        }
    }
    k.reapProcess(proc.pid());
}

/** One read() of up to @p n bytes of @p path, through the kernel VFS. */
std::string
readNode(kernel::Kernel &k, kernel::Thread &t, const std::string &path,
         std::size_t n)
{
    kernel::SyscallResult fd = k.sysOpen(t, path, kernel::oflag::RDONLY);
    EXPECT_TRUE(fd.ok()) << path;
    if (!fd.ok())
        return {};
    Bytes buf;
    kernel::SyscallResult rd =
        k.sysRead(t, static_cast<kernel::Fd>(fd.value), buf, n);
    EXPECT_TRUE(rd.ok()) << path;
    EXPECT_EQ(static_cast<std::size_t>(rd.value), buf.size()) << path;
    k.sysClose(t, static_cast<kernel::Fd>(fd.value));
    return std::string(buf.begin(), buf.end());
}

TEST(SubsystemStatsTest, PercentileNearestRank)
{
    SubsystemStats st;
    EXPECT_EQ(st.percentile(0.5), 0u); // empty

    st.samples = {10};
    EXPECT_EQ(st.p50(), 10u);
    EXPECT_EQ(st.p99(), 10u);

    st.samples = {50, 10, 40, 20, 30}; // sorts internally
    EXPECT_EQ(st.p50(), 30u);
    EXPECT_EQ(st.percentile(0.0), 10u);
    EXPECT_EQ(st.percentile(1.0), 50u);
    EXPECT_EQ(st.p99(), 50u);
}

TEST(LeakAuditTest, DetectsAndNamesDrift)
{
    LeakSnapshot a, b;
    a.processes = b.processes = 3;
    a.portsLive = 10;
    b.portsLive = 12;
    b.zombies = 1;
    a.gpuBuffersLive = 4;
    b.gpuBuffersLive = 5;

    std::string why;
    EXPECT_TRUE(leakAuditClean(a, a, &why));
    EXPECT_TRUE(why.empty());
    EXPECT_FALSE(leakAuditClean(a, b, &why));
    EXPECT_NE(why.find("ports"), std::string::npos);
    EXPECT_NE(why.find("zombies"), std::string::npos);
    EXPECT_NE(why.find("gpuBuffers 4 -> 5"), std::string::npos);
}

TEST(SloTest, GatesCatchCeilingAndFloorViolations)
{
    FleetReport report;
    report.virtualDurationNs = 1'000'000'000; // 1 virtual second
    SubsystemStats &vfs = report.subsystems["vfs"];
    vfs.samples = {100, 200, 900};
    vfs.ops = 3;

    std::vector<SloGate> gates(1);
    gates[0].subsystem = "vfs";
    gates[0].p50CeilingNs = 1000;
    gates[0].p99CeilingNs = 1000;
    gates[0].minOpsPerVirtualSec = 1;
    std::vector<std::string> violations;
    EXPECT_TRUE(evaluateSlos(report, gates, &violations));
    EXPECT_TRUE(violations.empty());

    gates[0].p99CeilingNs = 500; // p99 is 900
    EXPECT_FALSE(evaluateSlos(report, gates, &violations));
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("p99"), std::string::npos);

    violations.clear();
    gates[0].p99CeilingNs = 1000;
    gates[0].minOpsPerVirtualSec = 10; // only 3 ops/vsec
    EXPECT_FALSE(evaluateSlos(report, gates, &violations));

    // A gated subsystem that recorded nothing is itself a violation.
    violations.clear();
    gates[0].subsystem = "nonexistent";
    EXPECT_FALSE(evaluateSlos(report, gates, &violations));
}

TEST(SloTest, ScaleRelaxesCeilingsAndFloors)
{
    std::vector<SloGate> tight = defaultSloGates(1.0);
    std::vector<SloGate> relaxed = defaultSloGates(4.0);
    ASSERT_EQ(tight.size(), relaxed.size());
    for (std::size_t i = 0; i < tight.size(); ++i) {
        EXPECT_EQ(relaxed[i].p50CeilingNs, tight[i].p50CeilingNs * 4);
        EXPECT_EQ(relaxed[i].p99CeilingNs, tight[i].p99CeilingNs * 4);
        if (tight[i].minOpsPerVirtualSec > 0)
            EXPECT_LT(relaxed[i].minOpsPerVirtualSec,
                      tight[i].minOpsPerVirtualSec);
    }
}

TEST(FleetSoakTest, CleanScaleRunCompletesAndAuditsClean)
{
    CiderSystem sys(ciderOptions());
    FleetSoak soak(sys, smallFleet());
    FleetReport report = soak.run();

    EXPECT_EQ(report.sessionsStarted, 24u);
    EXPECT_EQ(report.sessionsCompleted, 24u);
    EXPECT_EQ(report.sessionsKilled, 0u);
    EXPECT_EQ(report.sessionsFailed, 0u);
    EXPECT_EQ(report.peakLive, 16u); // the admission cap
    EXPECT_EQ(report.permanentErrors, 0u);
    EXPECT_EQ(report.chldReceived, 24u);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
    // Every subsystem in the mix recorded work.
    for (const char *name :
         {"launch", "vfs", "ipc", "vm", "psynch", "gl", "dex"})
        EXPECT_GT(report.subsystems[name].ops, 0u) << name;
}

TEST(FleetSoakTest, BackpressureDefersAdmissionAtTheCap)
{
    CiderSystem sys(ciderOptions());
    FleetOptions opts = smallFleet();
    opts.sessions = 30;
    opts.maxActive = 8;
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();

    EXPECT_EQ(report.peakLive, 8u);
    EXPECT_GT(report.admissionDeferred, 0u);
    EXPECT_EQ(report.sessionsCompleted, 30u);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
}

/**
 * The kill-storm teardown regression: composed FaultRail storms, the
 * OOM killer, and driver kill storms leave no zombies, no leaked
 * ports, no leaked VmObjects, and no leaked zone elements behind.
 */
TEST(FleetSoakTest, KillStormTeardownLeaksNothing)
{
    CiderSystem sys(ciderOptions());
    FleetOptions opts = smallFleet();
    opts.sessions = 32;
    opts.maxActive = 24;
    opts.storm = true;
    opts.killStormFraction = 0.25; // a vicious storm
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();

    EXPECT_EQ(report.sessionsStarted, 32u);
    EXPECT_EQ(report.sessionsCompleted + report.sessionsKilled +
                  report.sessionsFailed,
              report.sessionsStarted);
    EXPECT_GT(report.sessionsKilled, 0u);
    EXPECT_GT(report.faultTrips, 0u);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
    EXPECT_EQ(report.after.zombies, 0u);
    EXPECT_EQ(report.after.portsLive, report.before.portsLive);
    EXPECT_EQ(report.after.vmObjectsLive, report.before.vmObjectsLive);
    EXPECT_EQ(report.after.zoneLiveElements,
              report.before.zoneLiveElements);

    // And the machine still works: an immediate clean fleet completes.
    FleetOptions clean = smallFleet();
    clean.sessions = 8;
    clean.maxActive = 8;
    FleetSoak again(sys, clean);
    FleetReport post = again.run();
    EXPECT_EQ(post.sessionsCompleted, 8u);
    EXPECT_TRUE(post.auditClean) << post.auditDetail;
}

TEST(FleetSoakTest, TransientFaultsAreRetriedAndRecovered)
{
    CiderSystem sys(ciderOptions());
    // Every 3rd vm.allocate fails with a transient shortage; bounded
    // retry must absorb them without losing a single session.
    kernel::FaultRail &rail = kernel::FaultRail::global();
    rail.disarmAll();
    rail.resetCounters();
    rail.armEveryK("vm.allocate", 3);

    FleetSoak soak(sys, smallFleet());
    FleetReport report = soak.run();
    rail.disarmAll();
    rail.resetCounters();

    EXPECT_GT(report.retriesTransient, 0u);
    EXPECT_EQ(report.retriesExhausted, 0u); // every-3rd always recovers
    EXPECT_EQ(report.sessionsCompleted, 24u);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
}

TEST(FleetSoakTest, WatchdogEscalatesWarnToKill)
{
    CiderSystem sys(ciderOptions());
    FleetOptions opts = smallFleet();
    opts.watchdogBudgetNs = 1; // every step is "hung"
    opts.watchdogWarnLimit = 1;
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();

    EXPECT_GT(report.watchdogWarnings, 0u);
    EXPECT_GT(report.watchdogKills, 0u);
    EXPECT_GT(report.sessionsKilled, 0u);
    EXPECT_FALSE(report.failureTraces.empty());
    EXPECT_EQ(report.sessionsCompleted + report.sessionsKilled +
                  report.sessionsFailed,
              report.sessionsStarted);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
}

TEST(FleetSoakTest, RailedSweepIsDeterministicAcrossFreshSystems)
{
    FleetOptions opts = smallFleet();
    opts.storm = true; // compose the fault storm with the rail
    FleetReport a, b;
    {
        CiderSystem sys(ciderOptions());
        FleetSoak soak(sys, opts);
        a = soak.runRailed(42, 3);
    }
    {
        CiderSystem sys(ciderOptions());
        FleetSoak soak(sys, opts);
        b = soak.runRailed(42, 3);
    }

    EXPECT_TRUE(a.railCompleted);
    EXPECT_FALSE(a.railDeadlocked);
    EXPECT_TRUE(a.auditClean) << a.auditDetail;
    ASSERT_EQ(a.railSeries.size(), 3u);
    for (std::uint64_t ns : a.railSeries)
        EXPECT_GT(ns, 0u);
    EXPECT_EQ(a.railSeries, b.railSeries);
    EXPECT_GT(a.waves, 0u); // rail decisions were actually made
}

TEST(FleetSoakTest, DifferentRailSeedsDiverge)
{
    FleetOptions opts = smallFleet();
    FleetReport a, b;
    {
        CiderSystem sys(ciderOptions());
        FleetSoak soak(sys, opts);
        a = soak.runRailed(1, 3);
    }
    {
        CiderSystem sys(ciderOptions());
        FleetSoak soak(sys, opts);
        b = soak.runRailed(2, 3);
    }
    EXPECT_TRUE(a.railCompleted);
    EXPECT_TRUE(b.railCompleted);
    // Different schedules decide whether a chain peer's Mach message
    // or signal poke has landed when a guest polls; a bit-identical
    // series across seeds would mean the rail is not actually steering.
    EXPECT_NE(a.railSeries, b.railSeries);
}

TEST(FleetSoakTest, RailGuestsAreSessionsReapedByInit)
{
    CiderSystem sys(ciderOptions());
    FleetSoak soak(sys, smallFleet());
    FleetReport report = soak.runRailed(42, 3);

    EXPECT_TRUE(report.railCompleted);
    EXPECT_EQ(report.sessionsStarted, 3u);
    EXPECT_EQ(report.sessionsCompleted, 3u);
    EXPECT_EQ(report.sessionsCompleted + report.sessionsKilled +
                  report.sessionsFailed,
              report.sessionsStarted);
    EXPECT_EQ(report.chldReceived, 3u);
    EXPECT_EQ(report.subsystems["launch"].ops, 3u);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
}

TEST(FleetSoakTest, NetBurstMixPassesLeakAuditAndRecordsTraffic)
{
    CiderSystem sys(ciderOptions());
    FleetOptions opts = smallFleet();
    opts.netBurst = true;
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();

    EXPECT_EQ(report.sessionsCompleted, 24u);
    EXPECT_GT(report.subsystems["net"].ops, 0u);
    // Socket teardown is part of the audit: no bound inet sockets and
    // no buffered bytes survive the drain.
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
    EXPECT_EQ(report.after.netSocketsLive, report.before.netSocketsLive);
    EXPECT_EQ(report.after.netBufferedBytes,
              report.before.netBufferedBytes);
    // Frames actually crossed the fabric.
    EXPECT_GT(sys.kernel().net().stats().framesRouted, 0u);
}

TEST(FleetSoakTest, NetBurstSurvivesNicStormsWithCleanTeardown)
{
    CiderSystem sys(ciderOptions());
    FleetOptions opts = smallFleet();
    opts.netBurst = true;
    opts.storm = true; // arms nic.drop / nic.reorder among the sites
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();

    EXPECT_EQ(report.sessionsCompleted + report.sessionsKilled +
                  report.sessionsFailed,
              report.sessionsStarted);
    EXPECT_TRUE(report.auditClean) << report.auditDetail;
    EXPECT_EQ(report.after.netSocketsLive, report.before.netSocketsLive);
}

TEST(FleetSoakTest, OneHostThreadVirtualTimeIsPinned)
{
    // One host thread runs every session in one fixed order, so the
    // soak's virtual results are a pure function of the options. A
    // change that only cuts host cost must leave these constants alone.
    FleetOptions opts = smallFleet();
    opts.hostThreads = 1;
    opts.netBurst = true;
    CiderSystem sys(ciderOptions());
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();

    struct Pin
    {
        const char *subsystem;
        std::uint64_t ops, p50, p99;
    };
    const Pin kPins[] = {
        {"dex", 30, 6789, 6789},
        {"gl", 16, 1351802, 1444107},
        {"ipc", 62, 6504, 11655},
        {"launch", 24, 3916582, 3916582},
        {"net", 62, 180819, 182319},
        {"psynch", 42, 1088, 1088},
        {"signal", 33, 5150, 6297},
        {"vfs", 62, 258111, 334148},
        {"vm", 62, 1577, 1577},
    };
    EXPECT_EQ(report.virtualDurationNs, 52387478u);
    EXPECT_EQ(report.subsystems.size(), std::size(kPins));
    for (const Pin &pin : kPins) {
        const SubsystemStats &s = report.subsystems[pin.subsystem];
        EXPECT_EQ(s.ops, pin.ops) << pin.subsystem;
        EXPECT_EQ(s.p50(), pin.p50) << pin.subsystem;
        EXPECT_EQ(s.p99(), pin.p99) << pin.subsystem;
    }
}

TEST(FleetSoakTest, NetGateOnlyAppearsWithTheNetMix)
{
    std::vector<SloGate> base = defaultSloGates(1.0, false);
    std::vector<SloGate> net = defaultSloGates(1.0, true);
    EXPECT_EQ(net.size(), base.size() + 1);
    EXPECT_EQ(net.back().subsystem, "net");
}

TEST(FleetSoakTest, ProcNodePublishesTheLatestReport)
{
    CiderSystem sys(ciderOptions());
    FleetSoak soak(sys, tinyFleet());
    soak.run();

    std::string text = soak.procText();
    EXPECT_NE(text.find("FleetSoak report (scale)"), std::string::npos);
    EXPECT_NE(text.find("leak audit: CLEAN"), std::string::npos);

    // The same text is readable through the kernel VFS surface.
    kernel::Kernel &k = sys.kernel();
    std::string node;
    asReader(k, [&](kernel::Thread &t) {
        node = readNode(k, t, "/proc/cider/fleet", 4096);
    });
    EXPECT_NE(node.find("FleetSoak report"), std::string::npos);
}

TEST(FleetSoakTest, ReportIsPerSystemAndOutlivesItsSoak)
{
    CiderSystem first(ciderOptions());
    CiderSystem second(ciderOptions());
    {
        FleetSoak soak(first, tinyFleet());
        FleetSoak idle(second, tinyFleet());
        soak.run();
    }

    std::string published, quiet;
    asReader(first.kernel(), [&](kernel::Thread &t) {
        published = readNode(first.kernel(), t, "/proc/cider/fleet", 4096);
    });
    asReader(second.kernel(), [&](kernel::Thread &t) {
        quiet = readNode(second.kernel(), t, "/proc/cider/fleet", 4096);
    });
    EXPECT_NE(published.find("FleetSoak report (scale)"),
              std::string::npos);
    EXPECT_EQ(quiet, "fleet: no soak has published yet\n");
}

TEST(ProcNodeTest, EveryCiderNodeReadsThroughTheVfs)
{
    CiderSystem sys(ciderOptions());
    FleetSoak soak(sys, tinyFleet());
    soak.run();
    kernel::Kernel &k = sys.kernel();

    // Registration order is what the device_add hook mirrors into the
    // I/O Kit registry.
    const std::vector<std::string> nodes = {
        "trapstats", "faults", "lockorder", "percpu", "vm",
        "net",       "iokit",  "jit",       "fleet"};
    std::vector<std::string> registered;
    for (const kernel::Device *dev : k.devices().all())
        if (dev->deviceClass() == "proc")
            registered.push_back(dev->name());
    EXPECT_EQ(registered, nodes);

    asReader(k, [&](kernel::Thread &t) {
        for (const std::string &name : nodes) {
            std::string path = "/proc/cider/" + name;
            std::string full = readNode(k, t, path, 1 << 20);
            std::string head = readNode(k, t, path, 16);
            EXPECT_FALSE(full.empty()) << path;
            EXPECT_EQ(head, full.substr(0, 16)) << path;
        }
    });
}

} // namespace
} // namespace cider::core
