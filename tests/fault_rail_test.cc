/**
 * @file
 * FaultRail tests: trigger policies (nth / every-k / seeded
 * probability / virtual-time window), per-process scoping, hit/trip
 * accounting, determinism of disarmed sites, the /proc/cider/faults
 * device node, and the sites threaded through zalloc/kalloc, the VFS,
 * the binfmt loaders, and signal delivery — plus the trap-boundary
 * hardening: BadSyscallArg containment, corrupt-image rejection, and
 * the per-process OOM kill path.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/cost_clock.h"
#include "binfmt/dex.h"
#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "kernel/trap_context.h"
#include "kernel/trap_stats.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_traps.h"
#include "xnu/xnu_signals.h"

namespace cider::kernel {
namespace {

using persona::PersonaManager;

/** Every test leaves the global rail disarmed and zeroed. */
class FaultRailTest : public ::testing::Test
{
  protected:
    FaultRailTest() { clean(); }
    ~FaultRailTest() override { clean(); }

    static void
    clean()
    {
        FaultRail::global().disarmAll();
        FaultRail::global().setTracking(false);
        FaultRail::global().resetCounters();
    }

    FaultRail &rail_ = FaultRail::global();
};

TEST_F(FaultRailTest, DisarmedSiteNeverFiresAndCountsNothing)
{
    FaultRail::SiteId id = rail_.site("test.disarmed");
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(rail_.shouldFail(id));
    // Fast path: nothing armed, nothing tracked, so no hits recorded.
    EXPECT_EQ(rail_.hits("test.disarmed"), 0u);
    EXPECT_EQ(rail_.trips("test.disarmed"), 0u);
}

TEST_F(FaultRailTest, TrackingCountsHitsWithoutFiring)
{
    FaultRail::SiteId id = rail_.site("test.tracked");
    rail_.setTracking(true);
    for (int i = 0; i < 7; ++i)
        EXPECT_FALSE(rail_.shouldFail(id));
    EXPECT_EQ(rail_.hits("test.tracked"), 7u);
    EXPECT_EQ(rail_.trips("test.tracked"), 0u);
}

TEST_F(FaultRailTest, NthFiresExactlyOnceOnTheNthHit)
{
    FaultRail::SiteId id = rail_.site("test.nth");
    rail_.armNth("test.nth", 3);
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(rail_.shouldFail(id));
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false,
                                        false, false}));
    EXPECT_EQ(rail_.trips("test.nth"), 1u);
    EXPECT_EQ(rail_.hits("test.nth"), 6u);
}

TEST_F(FaultRailTest, NthCountsFromArmingNotFromSiteHistory)
{
    FaultRail::SiteId id = rail_.site("test.rearm");
    rail_.setTracking(true);
    // Pre-arm traffic while only tracking is on: counted as raw hits,
    // but it must not consume policy slots armed later.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(rail_.shouldFail(id));
    rail_.armNth("test.rearm", 2);
    EXPECT_FALSE(rail_.shouldFail(id)); // 1st hit since arming
    EXPECT_TRUE(rail_.shouldFail(id));  // 2nd since arming fires
    EXPECT_FALSE(rail_.shouldFail(id)); // one-shot stays spent
    EXPECT_EQ(rail_.trips("test.rearm"), 1u);
    EXPECT_EQ(rail_.hits("test.rearm"), 8u); // raw traffic: all probes
}

TEST_F(FaultRailTest, EveryKFiresPeriodically)
{
    FaultRail::SiteId id = rail_.site("test.everyk");
    rail_.armEveryK("test.everyk", 4);
    int trips = 0;
    for (int i = 0; i < 12; ++i)
        if (rail_.shouldFail(id))
            ++trips;
    EXPECT_EQ(trips, 3);
}

TEST_F(FaultRailTest, ProbabilityIsSeedDeterministic)
{
    FaultRail::SiteId id = rail_.site("test.prob");
    auto run = [&](std::uint64_t seed) {
        rail_.armProbability("test.prob", 0.3, seed);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(rail_.shouldFail(id));
        rail_.disarm("test.prob");
        rail_.resetCounters();
        return fired;
    };
    std::vector<bool> a = run(42), b = run(42), c = run(43);
    EXPECT_EQ(a, b); // same seed, same trip pattern
    EXPECT_NE(a, c); // different stream
    EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
    EXPECT_LT(std::count(a.begin(), a.end(), true), 64);
}

TEST_F(FaultRailTest, WindowFollowsVirtualTime)
{
    FaultRail::SiteId id = rail_.site("test.window");
    rail_.armWindow("test.window", 1000, 2000);
    CostClock clock;
    CostScope scope(clock);
    EXPECT_FALSE(rail_.shouldFail(id)); // t=0, before window
    clock.charge(1500);
    EXPECT_TRUE(rail_.shouldFail(id)); // inside [1000, 2000)
    clock.charge(1000);
    EXPECT_FALSE(rail_.shouldFail(id)); // t=2500, past the window
}

TEST_F(FaultRailTest, ProbeNeverChargesVirtualTime)
{
    FaultRail::SiteId id = rail_.site("test.free");
    rail_.armEveryK("test.free", 2);
    CostClock clock;
    CostScope scope(clock);
    for (int i = 0; i < 50; ++i)
        rail_.shouldFail(id);
    EXPECT_EQ(clock.now(), 0u); // injection is invisible to the clock
}

TEST_F(FaultRailTest, SnapshotAndDumpListSites)
{
    rail_.armNth("test.snap", 5);
    bool found = false;
    for (const FaultSiteStats &st : rail_.snapshot())
        if (st.name == "test.snap") {
            found = true;
            EXPECT_TRUE(st.armed);
            EXPECT_EQ(st.spec.n, 5u);
        }
    EXPECT_TRUE(found);
    std::string text = rail_.dump();
    EXPECT_NE(text.find("=== cider faults ==="), std::string::npos);
    EXPECT_NE(text.find("test.snap"), std::string::npos);
    EXPECT_NE(text.find("nth(5)"), std::string::npos);
    EXPECT_NE(text.find("hung-waits"), std::string::npos);
}

TEST_F(FaultRailTest, ZallocSiteInjectsAndCountsAsFailed)
{
    ducttape::ZoneT *z = ducttape::zinit(64, "fault.test.zone");
    rail_.armNth("zone.alloc", 2);
    void *a = ducttape::zalloc(z);
    EXPECT_NE(a, nullptr);
    EXPECT_EQ(ducttape::zalloc(z), nullptr); // 2nd alloc trips
    void *c = ducttape::zalloc(z);
    EXPECT_NE(c, nullptr);
    ducttape::ZoneStats st = ducttape::zone_stats(z);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.allocs, 2u);
    ducttape::zfree(z, a);
    ducttape::zfree(z, c);
    ducttape::zdestroy(z);
}

TEST_F(FaultRailTest, KallocSiteInjects)
{
    rail_.armNth("kalloc.alloc", 1);
    EXPECT_EQ(ducttape::xnu_kalloc(128), nullptr);
    void *p = ducttape::xnu_kalloc(128);
    EXPECT_NE(p, nullptr);
    ducttape::xnu_kfree(p, 128);
}

TEST_F(FaultRailTest, CorruptDexIsRejectedAtParseNotMidExecution)
{
    binfmt::DexFile file;
    file.name = "corrupt";
    binfmt::DexAssembler as(file, "main", 2);
    as.callNative("missing");
    as.ret();
    as.finish();
    // Corrupt the image: point the call at a string that isn't there.
    file.methods["main"].code[0].sidx = 9999;
    Bytes blob = binfmt::serializeDex(file);
    EXPECT_FALSE(binfmt::parseDex(blob).has_value());

    // And the accessor itself degrades to empty instead of panicking.
    EXPECT_EQ(file.string(9999), "");
}

/** Full-kernel fixture for the trap-path and device-node tests. */
class FaultKernelTest : public FaultRailTest
{
  protected:
    FaultKernelTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        android_ = &kernel_.createProcess("droid", Persona::Android);
        ios_ = &kernel_.createProcess("iapp", Persona::Ios);
    }

    SyscallResult
    trapAs(Thread &t, TrapClass cls, int nr, SyscallArgs args = makeArgs())
    {
        ThreadScope scope(t);
        return kernel_.trap(t, cls, nr, std::move(args));
    }

    Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    PersonaManager mgr_;
    Process *android_;
    Process *ios_;
};

TEST_F(FaultKernelTest, PidScopedSiteOnlyFiresForThatProcess)
{
    rail_.armEveryK("test.scoped", 1, android_->pid());
    FaultRail::SiteId id = rail_.site("test.scoped");
    {
        ThreadScope scope(ios_->mainThread());
        EXPECT_FALSE(rail_.shouldFail(id));
    }
    {
        ThreadScope scope(android_->mainThread());
        EXPECT_TRUE(rail_.shouldFail(id));
    }
    // No simulated thread at all -> scoped site stays quiet.
    EXPECT_FALSE(rail_.shouldFail(id));
}

TEST_F(FaultKernelTest, ScopedNthIgnoresOtherProcessTraffic)
{
    rail_.armNth("test.scoped.nth", 1, ios_->pid());
    FaultRail::SiteId id = rail_.site("test.scoped.nth");
    {
        // Another process burns through the site first; its traffic
        // must not consume the scoped one-shot.
        ThreadScope scope(android_->mainThread());
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(rail_.shouldFail(id));
    }
    {
        ThreadScope scope(ios_->mainThread());
        EXPECT_TRUE(rail_.shouldFail(id)); // 1st matching hit fires
        EXPECT_FALSE(rail_.shouldFail(id));
    }
    EXPECT_EQ(rail_.trips("test.scoped.nth"), 1u);
}

TEST_F(FaultKernelTest, VfsLookupFaultSurfacesAsEIO)
{
    kernel_.vfs().writeFile("/tmp/victim", Bytes{1, 2, 3});
    Thread &t = android_->mainThread();
    ThreadScope scope(t);
    rail_.armEveryK("vfs.lookup", 1);
    SyscallResult r = kernel_.sysOpen(t, "/tmp/victim", oflag::RDONLY);
    rail_.disarm("vfs.lookup");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, lnx::IO);
    // With the site disarmed the same open succeeds: degradation, not
    // corruption.
    r = kernel_.sysOpen(t, "/tmp/victim", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    kernel_.sysClose(t, static_cast<Fd>(r.value));
}

TEST_F(FaultKernelTest, VfsCreateFaultSurfacesAsENOSPC)
{
    Thread &t = android_->mainThread();
    ThreadScope scope(t);
    rail_.armEveryK("vfs.create", 1);
    SyscallResult r = kernel_.sysOpen(t, "/tmp/fresh",
                                      oflag::WRONLY | oflag::CREAT);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, lnx::NOSPC);
}

TEST_F(FaultKernelTest, BinfmtFaultFailsExecWithENOEXECAndProcessSurvives)
{
    Thread &t = ios_->mainThread();
    ThreadScope scope(t);
    // Any blob will do: the fault fires before the parse.
    kernel_.vfs().writeFile("/tmp/app.bin", Bytes{0xde, 0xad});
    rail_.armEveryK("binfmt.macho", 1);
    rail_.armEveryK("binfmt.elf", 1);
    SyscallResult r = kernel_.sysExecve(t, "/tmp/app.bin", {});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, lnx::NOEXEC);
    EXPECT_EQ(ios_->state(), Process::State::Running);
}

TEST_F(FaultKernelTest, SignalDeliverFaultDropsTheSignal)
{
    Thread &t = android_->mainThread();
    ThreadScope scope(t);
    int delivered = 0;
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [&delivered](int, const SigInfo &) { ++delivered; };
    kernel_.sysSigaction(t, lsig::USR1, act);

    rail_.armEveryK("signal.deliver", 1);
    kernel_.sysKill(t, android_->pid(), lsig::USR1);
    EXPECT_EQ(delivered, 0); // dropped at the injection point
    rail_.disarm("signal.deliver");
    kernel_.sysKill(t, android_->pid(), lsig::USR1);
    EXPECT_EQ(delivered, 1);
}

TEST_F(FaultKernelTest, BadSyscallArgBecomesEinvalAndIsCounted)
{
    // read(2) with an empty argument vector: the handler's argAs
    // throws BadSyscallArg; the trap boundary must contain it.
    SyscallResult r = trapAs(android_->mainThread(),
                             TrapClass::LinuxSyscall, sysno::READ);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, lnx::INVAL);
    EXPECT_EQ(kernel_.trapStats().badArgTraps(), 1u);
    // open(2) whose path is an integer, through the XNU BSD table:
    // the shared handler's path argument throws the same way.
    r = trapAs(ios_->mainThread(), TrapClass::XnuBsd, xnu::xnuno::OPEN,
               makeArgs(std::int64_t{42}, std::int64_t{oflag::RDONLY}));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, xnu::linuxErrnoToXnu(lnx::INVAL));
    EXPECT_EQ(kernel_.trapStats().badArgTraps(), 2u);
    // The kernel keeps running: a clean trap still works.
    EXPECT_TRUE(trapAs(android_->mainThread(), TrapClass::LinuxSyscall,
                       sysno::NULL_SYSCALL)
                    .ok());
}

TEST_F(FaultKernelTest, OomKillReapsTheFaultingProcess)
{
    kernel_.setOomKillEnabled(true);
    // Every port-name allocation fails at the fault site, which
    // reports KERN_RESOURCE_SHORTAGE through the Mach trap.
    rail_.armEveryK("mach.name.alloc", 1, ios_->pid());

    Thread &t = ios_->mainThread();
    xnu::mach_port_name_t name = xnu::MACH_PORT_NULL;
    bool killed = false;
    try {
        trapAs(t, TrapClass::XnuMach, xnu::machno::PORT_ALLOCATE,
               makeArgs(static_cast<std::uint64_t>(
                            xnu::PortRight::Receive),
                        static_cast<void *>(&name)));
    } catch (const ProcessExit &e) {
        killed = true;
        EXPECT_EQ(e.code, 128 + lsig::KILL);
    }
    rail_.disarm("mach.name.alloc");
    ASSERT_TRUE(killed);
    EXPECT_EQ(ios_->state(), Process::State::Zombie);
    EXPECT_EQ(ios_->exitCode(), 128 + lsig::KILL);
    EXPECT_EQ(kernel_.trapStats().oomKills(), 1u);

    // The rest of the system keeps running.
    EXPECT_TRUE(trapAs(android_->mainThread(), TrapClass::LinuxSyscall,
                       sysno::NULL_SYSCALL)
                    .ok());
}

TEST_F(FaultKernelTest, OomKillOffByDefault)
{
    rail_.armEveryK("mach.name.alloc", 1);
    Thread &t = ios_->mainThread();
    xnu::mach_port_name_t name = xnu::MACH_PORT_NULL;
    SyscallResult r =
        trapAs(t, TrapClass::XnuMach, xnu::machno::PORT_ALLOCATE,
               makeArgs(static_cast<std::uint64_t>(
                            xnu::PortRight::Receive),
                        static_cast<void *>(&name)));
    // Mach convention: the kern_return_t rides in the value register.
    EXPECT_EQ(r.value, 6); // KERN_RESOURCE_SHORTAGE
    EXPECT_EQ(ios_->state(), Process::State::Running);
}

TEST_F(FaultKernelTest, PlainValueMachTrapIsNotMistakenForOom)
{
    kernel_.setOomKillEnabled(true);
    // Two custom Mach traps, both handing 6 back in the return
    // register: one as a plain value (the shape of thread_self
    // returning tid 6), one tagged as a kern_return_t.
    mgr_.machTable().set(-50, "test_plain_six",
                         [](TrapContext &, void *) {
                             return SyscallResult::success(6);
                         });
    mgr_.machTable()
        .set(-51, "test_kr_six",
             [](TrapContext &, void *) {
                 // KERN_RESOURCE_SHORTAGE by Mach convention.
                 return SyscallResult::success(6);
             })
        .returnsKr = true;

    Thread &t = ios_->mainThread();
    SyscallResult r = trapAs(t, TrapClass::XnuMach, -50);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, 6);
    EXPECT_EQ(ios_->state(), Process::State::Running);
    EXPECT_EQ(kernel_.trapStats().oomKills(), 0u);

    // The same register value from a kr-tagged trap is a real
    // resource shortage and takes the kill path.
    bool killed = false;
    try {
        trapAs(t, TrapClass::XnuMach, -51);
    } catch (const ProcessExit &e) {
        killed = true;
        EXPECT_EQ(e.code, 128 + lsig::KILL);
    }
    ASSERT_TRUE(killed);
    EXPECT_EQ(ios_->state(), Process::State::Zombie);
    EXPECT_EQ(kernel_.trapStats().oomKills(), 1u);
}

TEST_F(FaultKernelTest, ProcFaultsNodeIsReadable)
{
    rail_.armNth("test.visible", 100);
    Thread &t = android_->mainThread();
    ThreadScope scope(t);
    SyscallResult r =
        kernel_.sysOpen(t, "/proc/cider/faults", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    Fd fd = static_cast<Fd>(r.value);
    Bytes buf;
    r = kernel_.sysRead(t, fd, buf, 65536);
    ASSERT_TRUE(r.ok());
    std::string text(buf.begin(), buf.end());
    EXPECT_NE(text.find("=== cider faults ==="), std::string::npos);
    EXPECT_NE(text.find("test.visible"), std::string::npos);
    EXPECT_NE(text.find("nth(100)"), std::string::npos);
    kernel_.sysClose(t, fd);
}

} // namespace
} // namespace cider::kernel
