/**
 * @file
 * Trap observability tests: per-table per-syscall counters and latency
 * histograms, persona-aware table attribution, the trace ring, the
 * /proc/cider/trapstats device node, and the duplicate-registration
 * guard on SyscallTable::set.
 */

#include <gtest/gtest.h>

#include "base/cost_clock.h"
#include "hw/device_profile.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "kernel/trap_context.h"
#include "kernel/trap_stats.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_traps.h"

namespace cider::kernel {
namespace {

using persona::PersonaManager;

class TrapStatsTest : public ::testing::Test
{
  protected:
    TrapStatsTest()
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

TEST_F(TrapStatsTest, LinuxCountsAndLatencyAccumulate)
{
    TrapStats &stats = kernel_.trapStats();
    const int kCalls = 5;
    for (int i = 0; i < kCalls; ++i)
        ASSERT_TRUE(trapAs(android_->mainThread(),
                           TrapClass::LinuxSyscall, sysno::NULL_SYSCALL)
                        .ok());

    EXPECT_EQ(stats.calls("linux", sysno::NULL_SYSCALL),
              static_cast<std::uint64_t>(kCalls));
    EXPECT_EQ(stats.errors("linux", sysno::NULL_SYSCALL), 0u);
    // Latency is virtual ns and a null syscall still pays trap entry.
    EXPECT_GT(stats.totalNs("linux", sysno::NULL_SYSCALL), 0u);

    SyscallStat s = stats.stat("linux", sysno::NULL_SYSCALL);
    EXPECT_EQ(s.calls, static_cast<std::uint64_t>(kCalls));
    EXPECT_LE(s.minNs, s.maxNs);
    std::uint64_t hist_sum = 0;
    for (std::uint64_t b : s.hist)
        hist_sum += b;
    EXPECT_EQ(hist_sum, static_cast<std::uint64_t>(kCalls));
}

TEST_F(TrapStatsTest, ErrorsCountedSeparately)
{
    TrapStats &stats = kernel_.trapStats();
    // Missing file without O_CREAT fails with ENOENT.
    SyscallResult r =
        trapAs(android_->mainThread(), TrapClass::LinuxSyscall,
               sysno::OPEN,
               makeArgs("/missing",
                        static_cast<std::int64_t>(oflag::RDONLY)));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(stats.calls("linux", sysno::OPEN), 1u);
    EXPECT_EQ(stats.errors("linux", sysno::OPEN), 1u);
}

TEST_F(TrapStatsTest, PersonaSelectsWhichTableCounts)
{
    TrapStats &stats = kernel_.trapStats();

    // iOS persona, XNU BSD trap: the xnu-bsd counter increments and
    // the linux one does not.
    ASSERT_TRUE(trapAs(ios_->mainThread(), TrapClass::XnuBsd,
                       xnu::xnuno::NULL_SYSCALL)
                    .ok());
    EXPECT_EQ(stats.calls("xnu-bsd", xnu::xnuno::NULL_SYSCALL), 1u);
    EXPECT_EQ(stats.calls("linux", sysno::NULL_SYSCALL), 0u);

    // set_persona flips the thread to Android; the same thread's next
    // null syscall lands in the linux table instead.
    Thread &t = ios_->mainThread();
    ASSERT_TRUE(trapAs(t, TrapClass::XnuBsd, persona::SET_PERSONA,
                       makeArgs(static_cast<std::uint64_t>(
                           Persona::Android)))
                    .ok());
    ASSERT_TRUE(
        trapAs(t, TrapClass::LinuxSyscall, sysno::NULL_SYSCALL).ok());
    EXPECT_EQ(stats.calls("linux", sysno::NULL_SYSCALL), 1u);
    EXPECT_EQ(stats.calls("xnu-bsd", xnu::xnuno::NULL_SYSCALL), 1u);
    EXPECT_EQ(stats.personaSwitches(), 1u);
}

TEST_F(TrapStatsTest, MachAndMdepTablesCountSeparately)
{
    TrapStats &stats = kernel_.trapStats();
    Thread &t = ios_->mainThread();

    ASSERT_TRUE(
        trapAs(t, TrapClass::XnuMach, xnu::machno::TASK_SELF).ok());
    EXPECT_EQ(stats.calls("xnu-mach", xnu::machno::TASK_SELF), 1u);

    // Machine-dependent fast traps: set then read back the TLS base.
    ASSERT_TRUE(trapAs(t, TrapClass::XnuMdep,
                       persona::mdepno::SET_TLS_BASE,
                       makeArgs(std::uint64_t{0x7f001234}))
                    .ok());
    SyscallResult r =
        trapAs(t, TrapClass::XnuMdep, persona::mdepno::GET_TLS_BASE);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value, 0x7f001234);
    EXPECT_EQ(stats.calls("xnu-mdep", persona::mdepno::SET_TLS_BASE),
              1u);
    EXPECT_EQ(stats.calls("xnu-mdep", persona::mdepno::GET_TLS_BASE),
              1u);
    EXPECT_EQ(stats.tableCalls("xnu-mdep"), 2u);
}

TEST_F(TrapStatsTest, TraceRingRecordsTrapsAndPersonaSwitches)
{
    Thread &t = ios_->mainThread();
    ASSERT_TRUE(
        trapAs(t, TrapClass::XnuBsd, xnu::xnuno::NULL_SYSCALL).ok());
    ASSERT_TRUE(trapAs(t, TrapClass::XnuBsd, persona::SET_PERSONA,
                       makeArgs(static_cast<std::uint64_t>(
                           Persona::Android)))
                    .ok());

    std::vector<TraceRecord> trace = kernel_.trapStats().trace();
    bool saw_trap = false, saw_switch = false;
    for (const TraceRecord &rec : trace) {
        if (rec.kind == TraceRecord::Kind::Trap &&
            rec.nr == xnu::xnuno::NULL_SYSCALL &&
            rec.cls == TrapClass::XnuBsd &&
            rec.persona == Persona::Ios)
            saw_trap = true;
        if (rec.kind == TraceRecord::Kind::PersonaSwitch &&
            rec.persona == Persona::Ios &&
            rec.toPersona == Persona::Android)
            saw_switch = true;
    }
    EXPECT_TRUE(saw_trap);
    EXPECT_TRUE(saw_switch);
}

TEST_F(TrapStatsTest, TraceRingWrapsWithoutLosingRecency)
{
    TrapStats &stats = kernel_.trapStats();
    std::size_t cap = TrapStats::kTraceCapacity;
    Thread &t = android_->mainThread();
    for (std::size_t i = 0; i < cap + 16; ++i)
        ASSERT_TRUE(trapAs(t, TrapClass::LinuxSyscall,
                           sysno::NULL_SYSCALL)
                        .ok());
    EXPECT_GT(stats.traceRecorded(), static_cast<std::uint64_t>(cap));
    std::vector<TraceRecord> trace = stats.trace();
    EXPECT_EQ(trace.size(), cap);
    // The trace is oldest-to-newest; the last record is the newest.
    EXPECT_EQ(trace.back().seq, stats.traceRecorded() - 1);
}

TEST_F(TrapStatsTest, ProcNodeServesFreshDump)
{
    Thread &t = android_->mainThread();
    ThreadScope scope(t);
    ASSERT_TRUE(kernel_
                    .trap(t, TrapClass::LinuxSyscall,
                          sysno::NULL_SYSCALL, makeArgs())
                    .ok());

    SyscallResult r = kernel_.sysOpen(t, "/proc/cider/trapstats",
                                      oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    Fd fd = static_cast<Fd>(r.value);
    Bytes buf;
    r = kernel_.sysRead(t, fd, buf, 65536);
    ASSERT_TRUE(r.ok());
    std::string text(buf.begin(), buf.end());
    EXPECT_NE(text.find("=== cider trapstats ==="), std::string::npos);
    EXPECT_NE(text.find("table linux"), std::string::npos);
    EXPECT_NE(text.find("null"), std::string::npos);
    EXPECT_NE(text.find("persona-switches:"), std::string::npos);
    kernel_.sysClose(t, fd);
}

TEST_F(TrapStatsTest, ResetClearsEverything)
{
    TrapStats &stats = kernel_.trapStats();
    ASSERT_TRUE(trapAs(android_->mainThread(), TrapClass::LinuxSyscall,
                       sysno::NULL_SYSCALL)
                    .ok());
    ASSERT_GT(stats.totalCalls(), 0u);
    stats.reset();
    EXPECT_EQ(stats.totalCalls(), 0u);
    EXPECT_EQ(stats.calls("linux", sysno::NULL_SYSCALL), 0u);
    EXPECT_EQ(stats.personaSwitches(), 0u);
    EXPECT_EQ(stats.traceRecorded(), 0u);
}

TEST_F(TrapStatsTest, StatsRecordingDoesNotPerturbVirtualTime)
{
    // Two identical traps must cost identical virtual ns whether or
    // not counters already hold data — recording is host-side only.
    Thread &t = android_->mainThread();
    ThreadScope scope(t);
    std::uint64_t first = measureVirtual([&] {
        kernel_.trap(t, TrapClass::LinuxSyscall, sysno::NULL_SYSCALL,
                     makeArgs());
    });
    std::uint64_t second = measureVirtual([&] {
        kernel_.trap(t, TrapClass::LinuxSyscall, sysno::NULL_SYSCALL,
                     makeArgs());
    });
    EXPECT_EQ(first, second);
}

TEST(SyscallStatTest, BucketOfIsFloorLog2CappedAtTheLastBucket)
{
    constexpr std::uint64_t k23 = std::uint64_t{1} << 23;
    EXPECT_EQ(SyscallStat::bucketOf(0), 0);
    EXPECT_EQ(SyscallStat::bucketOf(1), 0);
    EXPECT_EQ(SyscallStat::bucketOf(2), 1);
    EXPECT_EQ(SyscallStat::bucketOf(3), 1);
    EXPECT_EQ(SyscallStat::bucketOf(4), 2);
    EXPECT_EQ(SyscallStat::bucketOf(k23 - 1), 22);
    EXPECT_EQ(SyscallStat::bucketOf(k23), 23);
    EXPECT_EQ(SyscallStat::bucketOf(std::uint64_t{1} << 40), 23);
    EXPECT_EQ(SyscallStat::bucketOf(UINT64_MAX), 23);
    static_assert(SyscallStat::kBuckets == 24);
}

using TrapStatsDeathTest = TrapStatsTest;

TEST_F(TrapStatsDeathTest, DuplicateRegistrationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            SyscallTable tbl("dup-check");
            tbl.set(1, "first", [](TrapContext &, void *) {
                return SyscallResult::success();
            });
            tbl.set(1, "second", [](TrapContext &, void *) {
                return SyscallResult::success();
            });
        },
        "duplicate registration");
}

} // namespace
} // namespace cider::kernel
