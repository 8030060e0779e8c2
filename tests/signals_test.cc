/**
 * @file
 * Signal delivery tests on the vanilla kernel (including a sender
 * queueing against a trapping receiver on another host thread) plus
 * the Linux<->XNU translation tables.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hw/device_profile.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "xnu/kern_return.h"
#include "xnu/xnu_signals.h"

namespace cider::kernel {
namespace {

class SignalsTest : public ::testing::Test
{
  protected:
    SignalsTest() : kernel_(hw::DeviceProfile::nexus7())
    {
        proc_ = &kernel_.createProcess("sig");
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<ThreadScope>(*thread_);
    }

    Kernel kernel_;
    Process *proc_;
    Thread *thread_;
    std::unique_ptr<ThreadScope> scope_;
};

TEST_F(SignalsTest, SelfSignalRunsHandlerSynchronously)
{
    int seen = 0;
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [&](int signo, const SigInfo &info) {
        seen = signo;
        EXPECT_EQ(info.senderPid, proc_->pid());
    };
    ASSERT_TRUE(kernel_.sysSigaction(*thread_, lsig::USR1, act).ok());
    ASSERT_TRUE(
        kernel_.sysKill(*thread_, proc_->pid(), lsig::USR1).ok());
    EXPECT_EQ(seen, lsig::USR1);
}

TEST_F(SignalsTest, IgnoredSignalIsDropped)
{
    SignalAction act;
    act.kind = SignalAction::Kind::Ignore;
    kernel_.sysSigaction(*thread_, lsig::USR2, act);
    EXPECT_TRUE(
        kernel_.sysKill(*thread_, proc_->pid(), lsig::USR2).ok());
    EXPECT_EQ(proc_->state(), Process::State::Running);
}

TEST_F(SignalsTest, DefaultTerminatesForFatalSignals)
{
    Process &victim = kernel_.createProcess("victim");
    EXPECT_TRUE(
        kernel_.sysKill(*thread_, victim.pid(), lsig::TERM).ok());
    EXPECT_EQ(victim.state(), Process::State::Zombie);
    EXPECT_EQ(victim.exitCode(), 128 + lsig::TERM);
}

TEST_F(SignalsTest, SigchldDefaultIsIgnore)
{
    EXPECT_TRUE(
        kernel_.sysKill(*thread_, proc_->pid(), lsig::CHLD).ok());
    EXPECT_EQ(proc_->state(), Process::State::Running);
}

TEST_F(SignalsTest, KillInvalidTargetsAndNumbers)
{
    EXPECT_EQ(kernel_.sysKill(*thread_, 9999, lsig::TERM).err,
              lnx::SRCH);
    EXPECT_EQ(kernel_.sysKill(*thread_, proc_->pid(), 99).err,
              lnx::INVAL);
    // Signal 0 probes without delivering.
    EXPECT_TRUE(kernel_.sysKill(*thread_, proc_->pid(), 0).ok());
}

TEST_F(SignalsTest, CannotCatchKillOrStop)
{
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [](int, const SigInfo &) {};
    EXPECT_EQ(kernel_.sysSigaction(*thread_, lsig::KILL, act).err,
              lnx::INVAL);
    EXPECT_EQ(kernel_.sysSigaction(*thread_, lsig::STOP, act).err,
              lnx::INVAL);
}

TEST_F(SignalsTest, CrossThreadSignalQueuedUntilTrapBoundary)
{
    Process &other = kernel_.createProcess("other");
    Thread &other_main = other.mainThread();

    int seen = 0;
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [&](int signo, const SigInfo &) { seen = signo; };
    other.signals().action(lsig::USR1) = act;

    kernel_.sysKill(*thread_, other.pid(), lsig::USR1);
    EXPECT_EQ(seen, 0); // queued, not yet delivered
    ASSERT_EQ(other_main.pendingSignalCount(), 1u);

    // The target's next trap delivers it.
    ThreadScope other_scope(other_main);
    kernel_.trap(other_main, TrapClass::LinuxSyscall,
                 sysno::NULL_SYSCALL, makeArgs());
    EXPECT_EQ(seen, lsig::USR1);
}

TEST_F(SignalsTest, ConcurrentQueueRunsEveryHandlerOnceInOrder)
{
    Process &other = kernel_.createProcess("target");
    Thread &target = other.mainThread();
    constexpr std::int64_t kSignals = 10000;

    // Handlers run on the target's host thread only.
    std::vector<std::int64_t> ran;
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [&ran](int, const SigInfo &info) { ran.push_back(info.value); };
    other.signals().action(lsig::USR1) = act;

    std::atomic<bool> queued{false};
    std::thread receiver([&] {
        ThreadScope scope(target);
        auto null_trap = [&] {
            kernel_.trap(target, TrapClass::LinuxSyscall,
                         sysno::NULL_SYSCALL, makeArgs());
        };
        while (!queued.load(std::memory_order_acquire))
            null_trap();
        // Every queueSignal happened before this trap: it drains the
        // rest.
        null_trap();
    });
    std::thread sender([&] {
        for (std::int64_t i = 0; i < kSignals; ++i) {
            SigInfo info;
            info.signo = lsig::USR1;
            info.tableSigno = lsig::USR1;
            info.value = i;
            target.queueSignal(info);
        }
        queued.store(true, std::memory_order_release);
    });
    sender.join();
    receiver.join();

    ASSERT_EQ(ran.size(), static_cast<std::size_t>(kSignals));
    std::size_t out_of_order = 0;
    for (std::int64_t i = 0; i < kSignals; ++i)
        if (ran[static_cast<std::size_t>(i)] != i)
            ++out_of_order;
    EXPECT_EQ(out_of_order, 0u);
    EXPECT_EQ(target.pendingSignalCount(), 0u);
}

// Translation tables (paper section 4.1).
TEST(SignalTranslation, RoundTripsAllTranslatableSignals)
{
    for (int lsignal = 1; lsignal < lsig::COUNT; ++lsignal) {
        int xnu = xnu::linuxSigToXnu(lsignal);
        if (xnu == 0)
            continue; // no counterpart
        EXPECT_EQ(xnu::xnuSigToLinux(xnu), lsignal)
            << "linux signal " << lsignal;
    }
    for (int dsignal = 1; dsignal < xnu::dsig::COUNT; ++dsignal) {
        int lsignal = xnu::xnuSigToLinux(dsignal);
        if (lsignal == 0)
            continue;
        EXPECT_EQ(xnu::linuxSigToXnu(lsignal), dsignal)
            << "darwin signal " << dsignal;
    }
}

TEST(SignalTranslation, KnownDivergences)
{
    EXPECT_EQ(xnu::linuxSigToXnu(lsig::USR1), xnu::dsig::USR1);
    EXPECT_NE(lsig::USR1, xnu::dsig::USR1); // 10 vs 30
    EXPECT_EQ(xnu::linuxSigToXnu(lsig::BUS), 10);
    EXPECT_EQ(xnu::linuxSigToXnu(lsig::CHLD), 20);
    // Linux-only signals have no XNU counterpart.
    EXPECT_EQ(xnu::linuxSigToXnu(lsig::STKFLT), 0);
    EXPECT_EQ(xnu::linuxSigToXnu(lsig::PWR), 0);
    // Darwin-only signals have no Linux counterpart.
    EXPECT_EQ(xnu::xnuSigToLinux(xnu::dsig::EMT), 0);
    EXPECT_EQ(xnu::xnuSigToLinux(xnu::dsig::INFO), 0);
}

TEST(ErrnoTranslation, DivergentValuesMapped)
{
    EXPECT_EQ(xnu::linuxErrnoToXnu(lnx::AGAIN), xnu::derr::AGAIN);
    EXPECT_EQ(xnu::linuxErrnoToXnu(lnx::NOSYS), 78);
    EXPECT_EQ(xnu::linuxErrnoToXnu(lnx::CONNREFUSED), 61);
    // Historic V7 range is shared.
    EXPECT_EQ(xnu::linuxErrnoToXnu(lnx::NOENT), lnx::NOENT);
    EXPECT_EQ(xnu::linuxErrnoToXnu(lnx::INVAL), lnx::INVAL);
}

} // namespace
} // namespace cider::kernel
