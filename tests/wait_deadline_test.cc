/**
 * @file
 * Virtual-time wait deadlines and wait robustness: Mach receive and
 * send timeouts (MACH_RCV_TIMEOUT / MACH_SEND_TIMEOUT), psynch
 * mutex/cv/semaphore deadline waits, receive-timeout wakeup ordering
 * against normal senders, dead-name notifications across
 * destroy/realloc churn of generational names, the hung-wait
 * watchdog, and the trap-level plumbing of the optional timeout
 * arguments.
 *
 * The deadline contract under test: virtual time cannot advance while
 * a thread is parked, so expiry is taken after a host-side grace
 * interval, and the waiter's virtual clock is advanced exactly to the
 * deadline. Host scheduling decides *when in host time* a timeout is
 * taken, never *what virtual time* it reports.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/bytes.h"
#include "base/cost_clock.h"
#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"
#include "kernel/kernel.h"
#include "kernel/trap_context.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_ipc.h"
#include "xnu/mach_traps.h"
#include "xnu/psynch.h"

namespace cider::xnu {
namespace {

using cider::CostClock;
using cider::CostScope;
using kernel::FaultRail;

/**
 * Shrink the host-side block grace so timeout storms run in
 * milliseconds, and leave the global fault rail clean on both sides
 * (this binary shares it with every subsystem under test).
 */
class WaitDeadlineTest : public ::testing::Test
{
  protected:
    WaitDeadlineTest() : savedGraceMs_(ducttape::waitq_block_grace_ms())
    {
        ducttape::waitq_set_block_grace_ms(3);
        cleanRail();
    }

    ~WaitDeadlineTest() override
    {
        ducttape::waitq_set_block_grace_ms(savedGraceMs_);
        cleanRail();
    }

    static void
    cleanRail()
    {
        FaultRail::global().disarmAll();
        FaultRail::global().setTracking(false);
        FaultRail::global().resetCounters();
    }

    MachMessage
    simpleMsg(mach_port_name_t dest, std::int32_t id)
    {
        MachMessage msg;
        msg.header.remotePort = dest;
        msg.header.remoteDisposition = MsgDisposition::MakeSend;
        msg.header.msgId = id;
        return msg;
    }

    std::uint64_t savedGraceMs_;
    MachIpc ipc_;
};

// ---------------------------------------------------------------------------
// Mach receive timeout.

TEST_F(WaitDeadlineTest, ReceiveTimeoutExpiresOnVirtualDeadline)
{
    SpacePtr space = ipc_.createSpace();
    mach_port_name_t port;
    ASSERT_EQ(ipc_.portAllocate(*space, PortRight::Receive, &port),
              KERN_SUCCESS);

    constexpr std::uint64_t kTimeoutNs = 250'000;
    CostClock clk;
    CostScope scope(clk);
    std::uint64_t before = clk.now();

    MachMessage out;
    RcvOptions opts;
    opts.hasTimeout = true;
    opts.timeoutNs = kTimeoutNs;
    EXPECT_EQ(ipc_.msgReceive(*space, port, out, opts),
              MACH_RCV_TIMED_OUT);

    // The waiter's clock lands on (or just past, if entry costs were
    // charged first) the deadline -- never short of it.
    EXPECT_GE(clk.now(), before + kTimeoutNs);
}

TEST_F(WaitDeadlineTest, ReceiveTimeoutVirtualTimeIsDeterministic)
{
    // Host scheduling jitter must not leak into virtual time: two
    // identical timed-out receives advance their clocks identically.
    std::vector<std::uint64_t> finals;
    for (int run = 0; run < 2; ++run) {
        SpacePtr space = ipc_.createSpace();
        mach_port_name_t port;
        ASSERT_EQ(ipc_.portAllocate(*space, PortRight::Receive, &port),
                  KERN_SUCCESS);
        CostClock clk;
        CostScope scope(clk);
        MachMessage out;
        RcvOptions opts;
        opts.hasTimeout = true;
        opts.timeoutNs = 123'456;
        EXPECT_EQ(ipc_.msgReceive(*space, port, out, opts),
                  MACH_RCV_TIMED_OUT);
        finals.push_back(clk.now());
    }
    EXPECT_EQ(finals[0], finals[1]);
}

TEST_F(WaitDeadlineTest, NonblockingPollNeverAdvancesToDeadline)
{
    SpacePtr space = ipc_.createSpace();
    mach_port_name_t port;
    ipc_.portAllocate(*space, PortRight::Receive, &port);

    CostClock clk;
    CostScope scope(clk);
    std::uint64_t before = clk.now();
    MachMessage out;
    RcvOptions opts;
    opts.nonblocking = true;
    EXPECT_EQ(ipc_.msgReceive(*space, port, out, opts),
              MACH_RCV_TIMED_OUT);
    // A poll reports empty immediately: it charges entry/lock costs
    // only, never a deadline's worth of virtual time.
    EXPECT_LT(clk.now() - before, 10'000u);
}

TEST_F(WaitDeadlineTest, TimedReceiverIsWokenByNormalSender)
{
    // A sender arriving before the grace interval elapses must wake
    // the timed receiver like any normal wait -- the timeout path is
    // a fallback, not a detour around the wakeup protocol.
    ducttape::waitq_set_block_grace_ms(200);
    SpacePtr space = ipc_.createSpace();
    mach_port_name_t port;
    ASSERT_EQ(ipc_.portAllocate(*space, PortRight::Receive, &port),
              KERN_SUCCESS);

    std::thread sender([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        MachMessage msg = simpleMsg(port, 77);
        EXPECT_EQ(ipc_.msgSend(*space, std::move(msg)), KERN_SUCCESS);
    });

    constexpr std::uint64_t kTimeoutNs = 50'000'000; // 50ms virtual
    CostClock clk;
    CostScope scope(clk);
    std::uint64_t before = clk.now();
    MachMessage out;
    RcvOptions opts;
    opts.hasTimeout = true;
    opts.timeoutNs = kTimeoutNs;
    EXPECT_EQ(ipc_.msgReceive(*space, port, out, opts), KERN_SUCCESS);
    EXPECT_EQ(out.header.msgId, 77);
    // Normal wakeup: the clock advanced by transfer costs only, far
    // short of the deadline.
    EXPECT_LT(clk.now() - before, kTimeoutNs);
    sender.join();
}

TEST_F(WaitDeadlineTest, TimedOutReceiverDoesNotDisturbFifoOrder)
{
    SpacePtr space = ipc_.createSpace();
    mach_port_name_t port;
    ipc_.portAllocate(*space, PortRight::Receive, &port);

    {
        CostClock clk;
        CostScope scope(clk);
        MachMessage out;
        RcvOptions opts;
        opts.hasTimeout = true;
        opts.timeoutNs = 10'000;
        ASSERT_EQ(ipc_.msgReceive(*space, port, out, opts),
                  MACH_RCV_TIMED_OUT);
    }

    // Messages sent after the expiry are delivered in order to later
    // receives; the dead waiter left no queue state behind.
    ASSERT_EQ(ipc_.msgSend(*space, simpleMsg(port, 1)), KERN_SUCCESS);
    ASSERT_EQ(ipc_.msgSend(*space, simpleMsg(port, 2)), KERN_SUCCESS);
    MachMessage a, b;
    ASSERT_EQ(ipc_.msgReceive(*space, port, a), KERN_SUCCESS);
    ASSERT_EQ(ipc_.msgReceive(*space, port, b), KERN_SUCCESS);
    EXPECT_EQ(a.header.msgId, 1);
    EXPECT_EQ(b.header.msgId, 2);
}

// ---------------------------------------------------------------------------
// Mach send timeout (qlimit back-pressure).

TEST_F(WaitDeadlineTest, SendTimeoutOnFullQueueLandsOnDeadline)
{
    SpacePtr space = ipc_.createSpace();
    mach_port_name_t port;
    ASSERT_EQ(ipc_.portAllocate(*space, PortRight::Receive, &port),
              KERN_SUCCESS);

    // Fill the queue to its qlimit; every send is nonblocking while
    // there is room.
    int sent = 0;
    for (; sent < 64; ++sent) {
        SendOptions probe;
        probe.hasTimeout = true;
        probe.timeoutNs = 1'000;
        CostClock clk;
        CostScope scope(clk);
        kern_return_t kr =
            ipc_.msgSend(*space, simpleMsg(port, sent), probe);
        if (kr == MACH_SEND_TIMED_OUT)
            break;
        ASSERT_EQ(kr, KERN_SUCCESS);
    }
    ASSERT_GT(sent, 0);
    ASSERT_LT(sent, 64) << "queue never exerted back-pressure";

    // Now a timed send against the full queue expires on its virtual
    // deadline.
    constexpr std::uint64_t kTimeoutNs = 400'000;
    CostClock clk;
    CostScope scope(clk);
    std::uint64_t before = clk.now();
    SendOptions opts;
    opts.hasTimeout = true;
    opts.timeoutNs = kTimeoutNs;
    EXPECT_EQ(ipc_.msgSend(*space, simpleMsg(port, 99), opts),
              MACH_SEND_TIMED_OUT);
    EXPECT_GE(clk.now(), before + kTimeoutNs);

    // Draining one message restores room: the same send now succeeds.
    MachMessage out;
    ASSERT_EQ(ipc_.msgReceive(*space, port, out), KERN_SUCCESS);
    EXPECT_EQ(ipc_.msgSend(*space, simpleMsg(port, 99), opts),
              KERN_SUCCESS);
}

// ---------------------------------------------------------------------------
// Dead-name notifications under name churn.

TEST_F(WaitDeadlineTest, DeadNameNotificationSurvivesNameChurn)
{
    SpacePtr spaceA = ipc_.createSpace();
    SpacePtr spaceB = ipc_.createSpace();

    mach_port_name_t watched;
    ASSERT_EQ(ipc_.portAllocate(*spaceA, PortRight::Receive, &watched),
              KERN_SUCCESS);
    PortPtr obj;
    ASSERT_EQ(ipc_.portLookup(*spaceA, watched, &obj), KERN_SUCCESS);
    mach_port_name_t watched_in_b;
    ASSERT_EQ(ipc_.insertSendRight(*spaceB, obj, &watched_in_b),
              KERN_SUCCESS);

    mach_port_name_t notify;
    ASSERT_EQ(ipc_.portAllocate(*spaceB, PortRight::Receive, &notify),
              KERN_SUCCESS);
    ASSERT_EQ(ipc_.requestDeadNameNotification(*spaceB, watched_in_b,
                                               notify),
              KERN_SUCCESS);

    // Churn B's name space hard: every destroy vacates a slot (gen
    // bump), every allocate recycles one FIFO. Generational names
    // guarantee no churned name ever aliases the watched entry.
    // (Stay under 64 vacate cycles per slot -- the 6-bit generation
    // wraps there, and a wrapped name may legitimately resurface.)
    mach_port_name_t first_churned = MACH_PORT_NULL;
    for (int i = 0; i < 40; ++i) {
        mach_port_name_t p;
        ASSERT_EQ(ipc_.portAllocate(*spaceB, PortRight::Receive, &p),
                  KERN_SUCCESS);
        EXPECT_NE(p, watched_in_b);
        EXPECT_NE(p, notify);
        if (first_churned == MACH_PORT_NULL)
            first_churned = p;
        else
            // A stale name from an earlier churn round must never
            // resolve again, even once its slot is recycled.
            EXPECT_NE(p, first_churned);
        ASSERT_EQ(ipc_.portDestroy(*spaceB, p), KERN_SUCCESS);
    }
    IpcEntry stale;
    EXPECT_NE(ipc_.portRights(*spaceB, first_churned, &stale),
              KERN_SUCCESS);

    // The watched entry rode out the churn untouched...
    IpcEntry entry;
    ASSERT_EQ(ipc_.portRights(*spaceB, watched_in_b, &entry),
              KERN_SUCCESS);
    EXPECT_GE(entry.sendRefs, 1u);

    // ...and the armed notification still fires with the right name.
    ASSERT_EQ(ipc_.portDestroy(*spaceA, watched), KERN_SUCCESS);
    MachMessage note;
    ASSERT_EQ(ipc_.msgReceive(*spaceB, notify, note), KERN_SUCCESS);
    EXPECT_EQ(note.header.msgId, MACH_NOTIFY_DEAD_NAME);
    ByteReader r(note.body);
    EXPECT_EQ(r.u32(), watched_in_b);

    IpcEntry dead;
    ASSERT_EQ(ipc_.portRights(*spaceB, watched_in_b, &dead),
              KERN_SUCCESS);
    EXPECT_TRUE(dead.deadName);
}

// ---------------------------------------------------------------------------
// Psynch deadline waits.

class PsynchDeadlineTest : public WaitDeadlineTest
{
  protected:
    PsynchSubsystem psynch_;

    /** Poll the watchdog until @p n threads are parked at @p site. */
    static void
    waitForParked(const char *site, std::size_t n)
    {
        for (int i = 0; i < 4000; ++i) {
            std::size_t parked = 0;
            for (const ducttape::BlockedWait &w :
                 ducttape::waitq_blocked_waits(0.0))
                if (w.site && std::string(w.site) == site)
                    ++parked;
            if (parked >= n)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        FAIL() << "never saw " << n << " waiters parked at " << site;
    }
};

TEST_F(PsynchDeadlineTest, SemWaitDeadlineTimesOutOnVirtualDeadline)
{
    ASSERT_EQ(psynch_.semInit(0x1000, 0), KERN_SUCCESS);

    constexpr std::uint64_t kTimeoutNs = 300'000;
    std::vector<std::uint64_t> finals;
    for (int run = 0; run < 2; ++run) {
        CostClock clk;
        CostScope scope(clk);
        std::uint64_t before = clk.now();
        EXPECT_EQ(psynch_.semWaitDeadline(0x1000, kTimeoutNs),
                  KERN_OPERATION_TIMED_OUT);
        EXPECT_GE(clk.now(), before + kTimeoutNs);
        finals.push_back(clk.now());
    }
    EXPECT_EQ(finals[0], finals[1]); // deterministic in virtual time

    // The semaphore still works: a signal lets a timed wait through
    // without expiring.
    ASSERT_EQ(psynch_.semSignal(0x1000), KERN_SUCCESS);
    CostClock clk;
    CostScope scope(clk);
    EXPECT_EQ(psynch_.semWaitDeadline(0x1000, kTimeoutNs),
              KERN_SUCCESS);
    EXPECT_LT(clk.now(), kTimeoutNs);
}

TEST_F(PsynchDeadlineTest, MutexWaitDeadlineTimesOutWhileHeld)
{
    constexpr std::uint64_t kMutex = 0x2000;
    ASSERT_EQ(psynch_.mutexWait(kMutex, /*owner_tid=*/1), KERN_SUCCESS);

    // A second contender with a deadline gives up at the deadline.
    std::atomic<std::uint64_t> waiterFinal{0};
    std::thread contender([&] {
        CostClock clk;
        CostScope scope(clk);
        EXPECT_EQ(psynch_.mutexWaitDeadline(kMutex, /*owner_tid=*/2,
                                            500'000),
                  KERN_OPERATION_TIMED_OUT);
        waiterFinal = clk.now();
    });
    contender.join();
    EXPECT_GE(waiterFinal.load(), 500'000u);

    // The timeout left the mutex consistent: drop it and the other
    // tid can take it.
    ASSERT_EQ(psynch_.mutexDrop(kMutex, 1), KERN_SUCCESS);
    EXPECT_EQ(psynch_.mutexWait(kMutex, 2), KERN_SUCCESS);
    EXPECT_EQ(psynch_.mutexDrop(kMutex, 2), KERN_SUCCESS);
}

TEST_F(PsynchDeadlineTest, CvWaitDeadlineReacquiresMutexOnTimeout)
{
    constexpr std::uint64_t kMutex = 0x3000;
    constexpr std::uint64_t kCv = 0x3100;
    ASSERT_EQ(psynch_.mutexWait(kMutex, 1), KERN_SUCCESS);

    CostClock clk;
    CostScope scope(clk);
    std::uint64_t before = clk.now();
    EXPECT_EQ(psynch_.cvWaitDeadline(kCv, kMutex, 1, 200'000),
              KERN_OPERATION_TIMED_OUT);
    EXPECT_GE(clk.now(), before + 200'000);

    // cv timeout semantics: the mutex is re-held on return, so the
    // caller's drop succeeds.
    EXPECT_EQ(psynch_.mutexDrop(kMutex, 1), KERN_SUCCESS);
}

TEST_F(PsynchDeadlineTest, CvTimeoutDoesNotLoseLaterWakeups)
{
    constexpr std::uint64_t kMutex = 0x4000;
    constexpr std::uint64_t kCv = 0x4100;

    // Retire one generation via timeout first.
    ASSERT_EQ(psynch_.mutexWait(kMutex, 1), KERN_SUCCESS);
    ASSERT_EQ(psynch_.cvWaitDeadline(kCv, kMutex, 1, 50'000),
              KERN_OPERATION_TIMED_OUT);
    ASSERT_EQ(psynch_.mutexDrop(kMutex, 1), KERN_SUCCESS);

    // A real wait/signal cycle still completes afterwards. Signals
    // are re-posted until the waiter reports back, so the test does
    // not depend on signal/wait interleaving (a retired generation
    // may legally surface as one spurious wakeup).
    ducttape::waitq_set_block_grace_ms(200);
    std::atomic<bool> done{false};
    std::thread waiter([&] {
        CostClock clk;
        CostScope scope(clk);
        ASSERT_EQ(psynch_.mutexWait(kMutex, 2), KERN_SUCCESS);
        EXPECT_EQ(psynch_.cvWait(kCv, kMutex, 2), KERN_SUCCESS);
        EXPECT_EQ(psynch_.mutexDrop(kMutex, 2), KERN_SUCCESS);
        done = true;
    });
    while (!done) {
        psynch_.cvSignal(kCv);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    waiter.join();
}

TEST_F(PsynchDeadlineTest, CvTimeoutDoesNotStealOlderWaitersSignal)
{
    // Regression: mixing pthread_cond_timedwait and pthread_cond_wait
    // on one cv. A younger waiter's timeout used to retire its
    // generation by bumping the signalled count, which satisfied the
    // older waiter's predicate instead: the older waiter phantom-woke,
    // re-waited under a new generation, and the next real signal was
    // absorbed by the departed waiter's slot — lost, leaving the older
    // waiter parked forever. A timeout must consume nothing.
    constexpr std::uint64_t kMutex = 0x7000;
    constexpr std::uint64_t kCv = 0x7100;

    bool go = false; // guarded by kMutex
    std::atomic<bool> done{false};
    std::thread older([&] {
        CostClock clk;
        CostScope scope(clk);
        ASSERT_EQ(psynch_.mutexWait(kMutex, 1), KERN_SUCCESS);
        // Classic predicate loop: a spurious wakeup alone re-waits.
        while (!go)
            ASSERT_EQ(psynch_.cvWait(kCv, kMutex, 1), KERN_SUCCESS);
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 1), KERN_SUCCESS);
        done = true;
    });
    waitForParked("psynch.cv", 1);

    // The younger waiter times out while the older one is parked.
    {
        CostClock clk;
        CostScope scope(clk);
        ASSERT_EQ(psynch_.mutexWait(kMutex, 2), KERN_SUCCESS);
        ASSERT_EQ(psynch_.cvWaitDeadline(kCv, kMutex, 2, 30'000),
                  KERN_OPERATION_TIMED_OUT);
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 2), KERN_SUCCESS);
    }

    // ONE signal must now wake the older waiter.
    {
        CostClock clk;
        CostScope scope(clk);
        ASSERT_EQ(psynch_.mutexWait(kMutex, 3), KERN_SUCCESS);
        go = true;
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 3), KERN_SUCCESS);
        ASSERT_EQ(psynch_.cvSignal(kCv), KERN_SUCCESS);
    }
    for (int i = 0; i < 4000 && !done; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(done) << "single signal failed to wake the older waiter";
    if (!done)
        psynch_.cvBroadcast(kCv); // unstick the thread on failure
    older.join();
}

TEST_F(PsynchDeadlineTest, BusyGraceIntervalDoesNotExpireTimedWait)
{
    // A grace interval that saw wakeup activity on the waitq (aimed at
    // other waiters) re-arms instead of expiring, so a slow-but-real
    // wakeup that precedes the virtual deadline is never misreported
    // as a timeout on a loaded host.
    ducttape::waitq_set_block_grace_ms(150);
    constexpr std::uint64_t kMutex = 0x8000;
    constexpr std::uint64_t kCv = 0x8100;

    bool goA = false, goB = false; // guarded by kMutex
    std::atomic<bool> aDone{false}, bDone{false};
    std::thread a([&] { // older untimed waiter
        CostClock clk;
        CostScope scope(clk);
        ASSERT_EQ(psynch_.mutexWait(kMutex, 1), KERN_SUCCESS);
        while (!goA)
            ASSERT_EQ(psynch_.cvWait(kCv, kMutex, 1), KERN_SUCCESS);
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 1), KERN_SUCCESS);
        aDone = true;
    });
    waitForParked("psynch.cv", 1);

    std::thread b([&] { // younger timed waiter, generous deadline
        CostClock clk;
        CostScope scope(clk);
        ASSERT_EQ(psynch_.mutexWait(kMutex, 2), KERN_SUCCESS);
        while (!goB) {
            kern_return_t kr = psynch_.cvWaitDeadline(
                kCv, kMutex, 2, 10'000'000'000ull); // 10s virtual
            EXPECT_EQ(kr, KERN_SUCCESS)
                << "busy grace interval misreported as timeout";
            if (kr != KERN_SUCCESS)
                break;
        }
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 2), KERN_SUCCESS);
        bDone = true;
    });
    waitForParked("psynch.cv", 2);

    // Wakeup traffic inside b's first grace interval, aimed at a.
    {
        ASSERT_EQ(psynch_.mutexWait(kMutex, 3), KERN_SUCCESS);
        goA = true;
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 3), KERN_SUCCESS);
        ASSERT_EQ(psynch_.cvSignal(kCv), KERN_SUCCESS);
    }
    a.join();
    EXPECT_TRUE(aDone.load());

    // Past b's original 150ms interval but inside the re-armed one:
    // this wakeup must still reach b as a success, not a timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    {
        ASSERT_EQ(psynch_.mutexWait(kMutex, 3), KERN_SUCCESS);
        goB = true;
        ASSERT_EQ(psynch_.mutexDrop(kMutex, 3), KERN_SUCCESS);
        ASSERT_EQ(psynch_.cvSignal(kCv), KERN_SUCCESS);
    }
    b.join();
    EXPECT_TRUE(bDone.load());
}

// ---------------------------------------------------------------------------
// Hung-wait watchdog.

TEST_F(WaitDeadlineTest, WatchdogReportsHungReceive)
{
    SpacePtr space = ipc_.createSpace();
    mach_port_name_t port;
    ASSERT_EQ(ipc_.portAllocate(*space, PortRight::Receive, &port),
              KERN_SUCCESS);

    std::atomic<bool> received{false};
    std::thread stuck([&] {
        MachMessage out;
        // Unbounded receive on an empty port: parked until the main
        // thread finally sends.
        EXPECT_EQ(ipc_.msgReceive(*space, port, out), KERN_SUCCESS);
        received = true;
    });

    // The watchdog is pure host-side bookkeeping: poll until the
    // parked wait crosses the reporting threshold.
    bool seen = false;
    for (int i = 0; i < 2000 && !seen; ++i) {
        for (const ducttape::BlockedWait &w :
             ducttape::waitq_blocked_waits(5.0)) {
            if (w.site && std::string(w.site) == "mach.rcv") {
                EXPECT_GE(w.hostBlockedMs, 5.0);
                seen = true;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(seen) << "watchdog never reported the parked receive";

    // The fault-rail report folds the same view in.
    FaultRail::global().setWatchdogThresholdMs(5.0);
    std::string report = FaultRail::global().dump();
    EXPECT_NE(report.find("hung-waits"), std::string::npos);
    EXPECT_NE(report.find("mach.rcv"), std::string::npos);
    FaultRail::global().setWatchdogThresholdMs(1000.0);

    ASSERT_EQ(ipc_.msgSend(*space, simpleMsg(port, 7)), KERN_SUCCESS);
    stuck.join();
    EXPECT_TRUE(received);
}

// ---------------------------------------------------------------------------
// Trap-level plumbing of the optional timeout arguments.

using kernel::Kernel;
using kernel::Persona;
using kernel::Process;
using kernel::SyscallArgs;
using kernel::SyscallResult;
using kernel::Thread;
using kernel::ThreadScope;
using kernel::TrapClass;
using kernel::makeArgs;
using persona::PersonaManager;

class TrapDeadlineTest : public WaitDeadlineTest
{
  protected:
    TrapDeadlineTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        ios_ = &kernel_.createProcess("iapp", Persona::Ios);
    }

    SyscallResult
    trapAs(Thread &t, TrapClass cls, int nr, SyscallArgs args = makeArgs())
    {
        ThreadScope scope(t);
        return kernel_.trap(t, cls, nr, std::move(args));
    }

    Kernel kernel_;
    PsynchSubsystem psynch_;
    PersonaManager mgr_;
    Process *ios_;
};

TEST_F(TrapDeadlineTest, SemaphoreWaitTrapHonorsTimeoutArgument)
{
    ASSERT_EQ(psynch_.semInit(0x5000, 0), KERN_SUCCESS);
    Thread &t = ios_->mainThread();
    std::uint64_t before = t.clock().now();
    SyscallResult r =
        trapAs(t, TrapClass::XnuMach, machno::SEMAPHORE_WAIT,
               makeArgs(std::uint64_t{0x5000}, std::uint64_t{150'000}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value,
              static_cast<std::int64_t>(KERN_OPERATION_TIMED_OUT));
    EXPECT_GE(t.clock().now(), before + 150'000);
}

TEST_F(TrapDeadlineTest, MachMsgTrapReceiveTimeoutArgument)
{
    Thread &t = ios_->mainThread();
    mach_port_name_t port = MACH_PORT_NULL;
    SyscallResult r =
        trapAs(t, TrapClass::XnuMach, machno::PORT_ALLOCATE,
               makeArgs(static_cast<std::uint64_t>(PortRight::Receive),
                        static_cast<void *>(&port)));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value, static_cast<std::int64_t>(KERN_SUCCESS));
    ASSERT_NE(port, MACH_PORT_NULL);

    MachMessage rcv;
    std::uint64_t before = t.clock().now();
    r = trapAs(t, TrapClass::XnuMach, machno::MACH_MSG,
               makeArgs(static_cast<void *>(nullptr),
                        machmsg::RCV | machmsg::RCV_TIMEOUT,
                        static_cast<std::uint64_t>(port),
                        static_cast<void *>(&rcv),
                        std::uint64_t{200'000}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value,
              static_cast<std::int64_t>(MACH_RCV_TIMED_OUT));
    EXPECT_GE(t.clock().now(), before + 200'000);

    // Timeout of zero keeps the historical poll semantics: immediate
    // MACH_RCV_TIMED_OUT, no deadline charge.
    before = t.clock().now();
    r = trapAs(t, TrapClass::XnuMach, machno::MACH_MSG,
               makeArgs(static_cast<void *>(nullptr),
                        machmsg::RCV | machmsg::RCV_TIMEOUT,
                        static_cast<std::uint64_t>(port),
                        static_cast<void *>(&rcv), std::uint64_t{0}));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value,
              static_cast<std::int64_t>(MACH_RCV_TIMED_OUT));
    EXPECT_LT(t.clock().now() - before, 100'000u);
}

TEST_F(TrapDeadlineTest, PsynchCvWaitTrapTimeoutBecomesEtimedout)
{
    Thread &t = ios_->mainThread();
    SyscallResult r = trapAs(t, TrapClass::XnuBsd, xnuno::PSYNCH_MUTEXWAIT,
                             makeArgs(std::uint64_t{0x6000}));
    ASSERT_TRUE(r.ok());

    std::uint64_t before = t.clock().now();
    r = trapAs(t, TrapClass::XnuBsd, xnuno::PSYNCH_CVWAIT,
               makeArgs(std::uint64_t{0x6100}, std::uint64_t{0x6000},
                        std::uint64_t{0} /* tid slot (unused) */,
                        std::uint64_t{250'000}));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, kernel::lnx::TIMEDOUT);
    EXPECT_GE(t.clock().now(), before + 250'000);

    r = trapAs(t, TrapClass::XnuBsd, xnuno::PSYNCH_MUTEXDROP,
               makeArgs(std::uint64_t{0x6000}));
    EXPECT_TRUE(r.ok());
}

} // namespace
} // namespace cider::xnu
