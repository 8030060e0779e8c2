/**
 * @file
 * AF_INET socket battery over the simulated NIC fabric.
 *
 * Covers the socket lifecycle through the typed syscall layer
 * (bind/listen/connect/accept, backlog refusal, EOF and half-close,
 * abortive close), select/kqueue readiness on inet fds, datagram
 * round-trips with source reporting, and the headline property test:
 * a seeded FaultRail drop/duplicate/reorder storm over a TCP-lite
 * stream delivers the exact byte sequence of a fault-free oracle run,
 * with a bit-identical virtual-time series across same-seed repeats.
 *
 * The SchedRail section interleaves connect-vs-listener-close and
 * accept-vs-RST races (seeded Random sweeps plus bounded-preemption
 * exploration) and plants one real ordering bug — a non-atomic
 * poll-then-accept pair — that exploration finds at preemption bound
 * one, misses at zero, and pins forever via a replayed trace.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "ducttape/cxx_runtime.h"
#include "hw/device_profile.h"
#include "iokit/io_registry.h"
#include "iokit/io_service.h"
#include "iokit/linux_bridge.h"
#include "iokit/network.h"
#include "kernel/fault_rail.h"
#include "kernel/kernel.h"
#include "kernel/net.h"
#include "kernel/sched_rail.h"
#include "persona/persona.h"
#include "xnu/kqueue.h"

namespace cider::kernel {
namespace {

/** Fresh listener port per scenario/episode (ports are never reused,
 *  so leaked episode sockets cannot shadow a later bind). */
NetPort
nextPort()
{
    static std::atomic<std::uint16_t> next{10000};
    return next.fetch_add(1);
}

class NetSocketTest : public ::testing::Test
{
  protected:
    NetSocketTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_), registry_(rt_),
          catalogue_(registry_)
    {
        FaultRail::global().disarmAll();
        SchedRail::global().disarm();
        mgr_.install(); // xnu-bsd traps back the kqueue interposer
        iokit::installLinuxBridge(kernel_.devices(), registry_);
        iokit::IONetworkController::registerDriver(
            rt_, catalogue_, registry_, kernel_.net(), fabric_);
        rt_.bootConstructors();
        addNic("eth0", "1");
        addNic("eth1", "2");
        proc_ = &kernel_.createProcess("net", Persona::Ios);
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<ThreadScope>(*thread_);
    }

    ~NetSocketTest() override
    {
        FaultRail::global().disarmAll();
        SchedRail::global().disarm();
    }

    void
    addNic(const std::string &name, const std::string &addr)
    {
        auto dev = std::make_unique<Device>(name, "network");
        dev->setProperty("address", addr);
        dev->setProperty("tx-depth", "32");
        kernel_.devices().add(std::move(dev));
    }

    Fd
    streamFd()
    {
        SyscallResult r = kernel_.sysNetSocket(*thread_, 1);
        EXPECT_TRUE(r.ok());
        return static_cast<Fd>(r.value);
    }

    Fd
    dgramFd()
    {
        SyscallResult r = kernel_.sysNetSocket(*thread_, 2);
        EXPECT_TRUE(r.ok());
        return static_cast<Fd>(r.value);
    }

    /** Established fd pair via listener on @p port: client, server. */
    void
    connectPair(NetPort port, Fd &cfd, Fd &sfd, Fd *lfd_out = nullptr)
    {
        Fd lfd = streamFd();
        ASSERT_TRUE(kernel_.sysNetBind(*thread_, lfd, 0, port).ok());
        ASSERT_TRUE(kernel_.sysListen(*thread_, lfd, 4).ok());
        cfd = streamFd();
        ASSERT_TRUE(kernel_.sysNetConnect(*thread_, cfd, 1, port).ok());
        SyscallResult ar = kernel_.sysAccept(*thread_, lfd);
        ASSERT_TRUE(ar.ok());
        sfd = static_cast<Fd>(ar.value);
        if (lfd_out)
            *lfd_out = lfd;
        else
            kernel_.sysClose(*thread_, lfd);
    }

    Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    ducttape::KernelCxxRuntime rt_;
    iokit::IORegistry registry_;
    iokit::IOCatalogue catalogue_;
    iokit::NetFabric fabric_;
    Process *proc_ = nullptr;
    Thread *thread_ = nullptr;
    std::unique_ptr<ThreadScope> scope_;
};

// ---------------------------------------------------------------------------
// Lifecycle through the typed syscall layer.

TEST_F(NetSocketTest, StreamLifecycleRoundTrip)
{
    NetPort port = nextPort();
    Fd cfd, sfd, lfd;
    connectPair(port, cfd, sfd, &lfd);

    Bytes ping{'p', 'i', 'n', 'g'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, cfd, ping).value, 4);
    Bytes in;
    EXPECT_EQ(kernel_.sysRead(*thread_, sfd, in, 16).value, 4);
    EXPECT_EQ(in, ping);

    Bytes pong{'p', 'o', 'n', 'g'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, sfd, pong).value, 4);
    EXPECT_EQ(kernel_.sysRead(*thread_, cfd, in, 16).value, 4);
    EXPECT_EQ(in, pong);

    EXPECT_TRUE(kernel_.sysClose(*thread_, cfd).ok());
    EXPECT_TRUE(kernel_.sysClose(*thread_, sfd).ok());
    EXPECT_TRUE(kernel_.sysClose(*thread_, lfd).ok());
}

TEST_F(NetSocketTest, ConnectWithoutListenerIsRefused)
{
    Fd cfd = streamFd();
    SyscallResult r = kernel_.sysNetConnect(*thread_, cfd, 1, 4242);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, lnx::CONNREFUSED);
    EXPECT_GT(kernel_.net().stats().resetsSent, 0u);
    kernel_.sysClose(*thread_, cfd);
}

TEST_F(NetSocketTest, BacklogOverflowRefusesThenDrainReadmits)
{
    NetPort port = nextPort();
    Fd lfd = streamFd();
    ASSERT_TRUE(kernel_.sysNetBind(*thread_, lfd, 0, port).ok());
    ASSERT_TRUE(kernel_.sysListen(*thread_, lfd, 1).ok());

    int okCount = 0, refused = 0;
    std::vector<Fd> clients;
    for (int i = 0; i < 4; ++i) {
        Fd c = streamFd();
        clients.push_back(c);
        SyscallResult r = kernel_.sysNetConnect(*thread_, c, 1, port);
        if (r.ok()) {
            ++okCount;
        } else {
            EXPECT_EQ(r.err, lnx::CONNREFUSED);
            ++refused;
        }
    }
    EXPECT_GE(okCount, 1);
    EXPECT_GE(refused, 1);
    EXPECT_GT(kernel_.net().stats().synRefused, 0u);

    // Draining one completed connection makes room again.
    ASSERT_TRUE(kernel_.sysAccept(*thread_, lfd).ok());
    Fd late = streamFd();
    EXPECT_TRUE(kernel_.sysNetConnect(*thread_, late, 1, port).ok());
    kernel_.sysClose(*thread_, late);
    for (Fd c : clients)
        kernel_.sysClose(*thread_, c);
    kernel_.sysClose(*thread_, lfd);
}

TEST_F(NetSocketTest, ShutdownWriteDeliversEofButKeepsHalfOpen)
{
    Fd cfd, sfd;
    connectPair(nextPort(), cfd, sfd);

    Bytes tail{'e', 'n', 'd'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, cfd, tail).value, 3);
    ASSERT_TRUE(kernel_.sysNetShutdown(*thread_, cfd, 1).ok()); // WR

    // Server drains buffered data, then sees a clean EOF.
    Bytes in;
    EXPECT_EQ(kernel_.sysRead(*thread_, sfd, in, 16).value, 3);
    EXPECT_EQ(kernel_.sysRead(*thread_, sfd, in, 16).value, 0);

    // Half-close: the server->client direction still flows.
    Bytes reply{'o', 'k'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, sfd, reply).value, 2);
    EXPECT_EQ(kernel_.sysRead(*thread_, cfd, in, 16).value, 2);
    EXPECT_EQ(in, reply);

    // Writing after shutdown(WR) fails.
    EXPECT_FALSE(kernel_.sysWrite(*thread_, cfd, reply).ok());

    kernel_.sysClose(*thread_, cfd);
    kernel_.sysClose(*thread_, sfd);

    // shutdown(RD) on a live connection: reads return EOF even when
    // the peer keeps sending.
    Fd cfd2, sfd2;
    connectPair(nextPort(), cfd2, sfd2);
    ASSERT_TRUE(kernel_.sysNetShutdown(*thread_, sfd2, 0).ok());
    kernel_.sysWrite(*thread_, cfd2, reply);
    EXPECT_EQ(kernel_.sysRead(*thread_, sfd2, in, 16).value, 0);
    kernel_.sysClose(*thread_, cfd2);
    kernel_.sysClose(*thread_, sfd2);
}

TEST_F(NetSocketTest, CloseWithUnreadDataResetsThePeer)
{
    Fd cfd, sfd;
    connectPair(nextPort(), cfd, sfd);

    Bytes data{'x', 'y'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, cfd, data).value, 2);
    // The server closes without reading: abortive close, RST out.
    ASSERT_TRUE(kernel_.sysClose(*thread_, sfd).ok());

    Bytes in;
    SyscallResult r = kernel_.sysRead(*thread_, cfd, in, 16);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, lnx::CONNRESET);
    kernel_.sysClose(*thread_, cfd);
}

TEST_F(NetSocketTest, ListenerCloseAbortsHalfOpenChild)
{
    const std::uint64_t baseline = kernel_.net().stats().socketsLive;
    NetPort port = nextPort();
    Fd lfd = streamFd();
    int one = 1;
    ASSERT_TRUE(kernel_.sysIoctl(*thread_, lfd, netio::FIONBIO, &one).ok());
    ASSERT_TRUE(kernel_.sysNetBind(*thread_, lfd, 0, port).ok());
    ASSERT_TRUE(kernel_.sysListen(*thread_, lfd, 4).ok());

    // SYN, SYNACK, then the wire eats the handshake's final ACK: the
    // client is connected, the passive child stays half-open.
    FaultRail::global().armNth("nic.drop", 3);
    Fd cfd = streamFd();
    ASSERT_TRUE(kernel_.sysNetConnect(*thread_, cfd, 1, port).ok());
    SyscallResult ar = kernel_.sysAccept(*thread_, lfd);
    EXPECT_FALSE(ar.ok());
    EXPECT_EQ(ar.err, lnx::AGAIN);

    // The client's FIN is lost too, so nothing ever promotes the child.
    FaultRail::global().armNth("nic.drop", 1);
    kernel_.sysClose(*thread_, cfd);
    FaultRail::global().disarmAll();
    kernel_.sysClose(*thread_, lfd);

    EXPECT_EQ(kernel_.net().stats().socketsLive, baseline);
}

// ---------------------------------------------------------------------------
// Readiness: select and kqueue over inet fds.

TEST_F(NetSocketTest, SelectReportsStreamReadiness)
{
    Fd cfd, sfd;
    connectPair(nextPort(), cfd, sfd);

    std::vector<Fd> rd{sfd}, wr{sfd}, ready;
    // Idle established socket: writable, not readable.
    EXPECT_EQ(kernel_.sysSelect(*thread_, rd, wr, ready).value, 1);
    EXPECT_EQ(ready, std::vector<Fd>{sfd});

    Bytes b{1};
    kernel_.sysWrite(*thread_, cfd, b);
    EXPECT_EQ(kernel_.sysSelect(*thread_, rd, wr, ready).value, 2);

    // A pending connection makes the listener fd readable.
    NetPort port = nextPort();
    Fd lfd = streamFd();
    ASSERT_TRUE(kernel_.sysNetBind(*thread_, lfd, 0, port).ok());
    ASSERT_TRUE(kernel_.sysListen(*thread_, lfd, 2).ok());
    std::vector<Fd> lrd{lfd}, none;
    EXPECT_EQ(kernel_.sysSelect(*thread_, lrd, none, ready).value, 0);
    Fd c2 = streamFd();
    ASSERT_TRUE(kernel_.sysNetConnect(*thread_, c2, 1, port).ok());
    EXPECT_EQ(kernel_.sysSelect(*thread_, lrd, none, ready).value, 1);

    for (Fd f : {cfd, sfd, c2, lfd})
        kernel_.sysClose(*thread_, f);
}

TEST_F(NetSocketTest, KqueueReportsStreamReadiness)
{
    Fd cfd, sfd;
    connectPair(nextPort(), cfd, sfd);

    xnu::KQueue kq(kernel_, *thread_);
    std::vector<xnu::KEvent> out;
    EXPECT_EQ(kq.kevent({{sfd, xnu::EVFILT_READ, true},
                         {cfd, xnu::EVFILT_WRITE, true}},
                        out),
              1); // client writable, server not yet readable
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ident, cfd);

    Bytes b{7};
    kernel_.sysWrite(*thread_, cfd, b);
    out.clear();
    EXPECT_EQ(kq.kevent({}, out), 2);

    kernel_.sysClose(*thread_, cfd);
    kernel_.sysClose(*thread_, sfd);
}

// ---------------------------------------------------------------------------
// Datagrams.

TEST_F(NetSocketTest, DgramRoundTripReportsSource)
{
    NetPort pa = nextPort(), pb = nextPort();
    Fd a = dgramFd(), b = dgramFd();
    ASSERT_TRUE(kernel_.sysNetBind(*thread_, a, 1, pa).ok());
    ASSERT_TRUE(kernel_.sysNetBind(*thread_, b, 2, pb).ok());

    Bytes hello{'h', 'i'};
    EXPECT_EQ(kernel_.sysNetSendTo(*thread_, a, 2, pb, hello).value, 2);
    Bytes in;
    NetAddr srcA = 0;
    NetPort srcP = 0;
    EXPECT_EQ(
        kernel_.sysNetRecvFrom(*thread_, b, in, 64, &srcA, &srcP).value,
        2);
    EXPECT_EQ(in, hello);
    EXPECT_EQ(srcA, 1u);
    EXPECT_EQ(srcP, pa);

    // Reply to the reported source.
    Bytes yo{'y', 'o'};
    EXPECT_EQ(kernel_.sysNetSendTo(*thread_, b, srcA, srcP, yo).value, 2);
    EXPECT_EQ(
        kernel_.sysNetRecvFrom(*thread_, a, in, 64, nullptr, nullptr)
            .value,
        2);
    EXPECT_EQ(in, yo);

    // Unbound destination port: silently dropped, counted.
    std::uint64_t before = kernel_.net().stats().framesNoPort;
    EXPECT_TRUE(kernel_.sysNetSendTo(*thread_, a, 2, 1, hello).ok());
    EXPECT_EQ(kernel_.net().stats().framesNoPort, before + 1);

    kernel_.sysClose(*thread_, a);
    kernel_.sysClose(*thread_, b);
}

// ---------------------------------------------------------------------------
// Observability.

TEST_F(NetSocketTest, ProcNetReportsLiveState)
{
    Fd cfd, sfd;
    connectPair(nextPort(), cfd, sfd);

    SyscallResult r =
        kernel_.sysOpen(*thread_, "/proc/cider/net", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    Fd pf = static_cast<Fd>(r.value);
    Bytes out;
    ASSERT_TRUE(kernel_.sysRead(*thread_, pf, out, 1 << 16).ok());
    std::string text(out.begin(), out.end());
    EXPECT_NE(text.find("cider net stack"), std::string::npos);
    EXPECT_NE(text.find("eth0"), std::string::npos);
    EXPECT_NE(text.find("sockets: live="), std::string::npos);

    kernel_.sysClose(*thread_, pf);
    kernel_.sysClose(*thread_, cfd);
    kernel_.sysClose(*thread_, sfd);
}

// ---------------------------------------------------------------------------
// The property test: a seeded fault storm over a TCP-lite stream
// delivers the oracle's exact byte sequence, in order, and two
// same-seed storm runs agree on the virtual-time bill bit for bit.

struct TransferOutcome
{
    bool ok = false;
    Bytes received;
    std::uint64_t virtualNs = 0;
    std::uint64_t retransmits = 0;
};

class NetStormTest : public NetSocketTest
{
  protected:
    static Bytes
    patternBytes(std::uint64_t seed, std::size_t n)
    {
        Bytes out;
        out.reserve(n);
        std::uint64_t x = seed | 1;
        for (std::size_t i = 0; i < n; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.push_back(static_cast<std::uint8_t>(x));
        }
        return out;
    }

    TransferOutcome
    runTransfer(std::uint64_t seed, bool storm)
    {
        FaultRail &rail = FaultRail::global();
        rail.disarmAll();
        if (storm) {
            rail.armProbability("nic.drop", 0.12, seed);
            rail.armProbability("nic.reorder", 0.10, seed + 1);
            rail.armProbability("nic.dup", 0.08, seed + 2);
        }

        TransferOutcome out;
        NetPort port = nextPort();
        auto srv = kernel_.net().socket(NetProto::Stream);
        auto cli = kernel_.net().socket(NetProto::Stream);
        if (!srv->bind(0, port).ok() || !srv->listen(1).ok()) {
            rail.disarmAll();
            return out;
        }

        std::uint64_t t0 = thread_->clock().now();
        if (!cli->connectTo(1, port).ok()) {
            rail.disarmAll();
            return out;
        }
        InetSocketPtr peer;
        if (!srv->accept(peer).ok()) {
            rail.disarmAll();
            return out;
        }
        cli->setNonblocking(true);
        peer->setNonblocking(true);

        const Bytes payload = patternBytes(seed, 48 * 1024);
        std::size_t sent = 0;
        int spins = 0;
        while (out.received.size() < payload.size()) {
            if (++spins > 200000)
                break; // storm wedged the transfer: report failure
            if (sent < payload.size()) {
                std::size_t chunk =
                    std::min<std::size_t>(1500, payload.size() - sent);
                Bytes b(payload.begin() + static_cast<long>(sent),
                        payload.begin() + static_cast<long>(sent + chunk));
                SyscallResult w = cli->write(*thread_, b);
                if (w.ok())
                    sent += static_cast<std::size_t>(w.value);
            }
            Bytes in;
            SyscallResult r = peer->read(*thread_, in, 4096);
            if (r.ok() && r.value > 0)
                out.received.insert(out.received.end(), in.begin(),
                                    in.end());
            cli->pump();
            peer->pump();
        }

        out.retransmits = cli->retransmitCount();
        out.virtualNs = thread_->clock().now() - t0;
        out.ok = out.received.size() == payload.size();
        cli->closed();
        peer->closed();
        srv->closed();
        rail.disarmAll();
        return out;
    }
};

TEST_F(NetStormTest, StormStreamMatchesFaultFreeOracle)
{
    const std::uint64_t seed = 7;

    TransferOutcome oracle = runTransfer(seed, false);
    ASSERT_TRUE(oracle.ok);
    EXPECT_EQ(oracle.retransmits, 0u);
    EXPECT_EQ(oracle.received, patternBytes(seed, 48 * 1024));

    TransferOutcome storm = runTransfer(seed, true);
    ASSERT_TRUE(storm.ok);
    // In-order, byte-identical delivery despite drop/dup/reorder.
    EXPECT_EQ(storm.received, oracle.received);
    // The storm actually bit: loss was recovered by retransmission.
    EXPECT_GT(storm.retransmits, 0u);
    EXPECT_GT(storm.virtualNs, oracle.virtualNs);

    // Same seed, same storm: bit-identical virtual-time bill.
    TransferOutcome again = runTransfer(seed, true);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.received, storm.received);
    EXPECT_EQ(again.virtualNs, storm.virtualNs);
    EXPECT_EQ(again.retransmits, storm.retransmits);
}

TEST_F(NetStormTest, DistinctSeedsProduceDistinctSchedulesSameBytes)
{
    TransferOutcome a = runTransfer(11, true);
    TransferOutcome b = runTransfer(12, true);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    // Payloads differ by seed; both streams arrive intact.
    EXPECT_EQ(a.received, patternBytes(11, 48 * 1024));
    EXPECT_EQ(b.received, patternBytes(12, 48 * 1024));
}

// ---------------------------------------------------------------------------
// SchedRail: socket races under Random sweeps, bounded-preemption
// exploration, and a pinned replayable schedule.

class NetRailTest : public NetSocketTest
{
  protected:
    SchedRail &rail_ = SchedRail::global();
};

/** Client actively opens while another guest closes the listener. */
struct ConnectCloseScenario
{
    Kernel &k;
    NetPort port;
    InetSocketPtr listener;
    bool connectOk = false;
    int connectErr = 0;

    ConnectCloseScenario(Kernel &kk, NetPort p) : k(kk), port(p)
    {
        listener = k.net().socket(NetProto::Stream);
        listener->bind(0, port);
        listener->listen(2);
    }

    void
    spawn(SchedRail &sr)
    {
        sr.spawn("client", [this] {
            auto c = k.net().socket(NetProto::Stream);
            SyscallResult r = c->connectTo(1, port);
            connectOk = r.ok();
            connectErr = r.err;
            c->closed();
        });
        sr.spawn("closer", [this] { listener->closed(); });
    }

    bool
    sane() const
    {
        return connectOk || connectErr == lnx::CONNREFUSED ||
               connectErr == lnx::CONNRESET ||
               connectErr == lnx::TIMEDOUT;
    }
};

TEST_F(NetRailTest, ConnectVsListenerCloseSurvivesRandomSweep)
{
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        SchedOptions opt;
        opt.policy = SchedPolicy::Random;
        opt.seed = seed;
        rail_.arm(opt);
        ConnectCloseScenario sc(kernel_, nextPort());
        sc.spawn(rail_);
        SchedResult r = rail_.run();
        rail_.disarm();
        EXPECT_TRUE(r.completed && !r.deadlocked)
            << "seed " << seed << "\n"
            << r.traceText();
        EXPECT_TRUE(sc.sane())
            << "seed " << seed << " err=" << sc.connectErr;
    }
}

TEST_F(NetRailTest, ConnectVsListenerCloseSurvivesExploration)
{
    ConnectCloseScenario *sc = nullptr;
    std::vector<std::unique_ptr<ConnectCloseScenario>> keep;
    auto setup = [this, &sc, &keep] {
        keep.push_back(
            std::make_unique<ConnectCloseScenario>(kernel_, nextPort()));
        sc = keep.back().get();
        sc->spawn(rail_);
    };
    auto ok = [&sc] { return sc->sane(); };
    ExploreOptions eo;
    eo.maxPreemptions = 2;
    eo.maxSchedules = 600;
    ExploreResult r = exploreSchedules(rail_, setup, ok, eo);
    EXPECT_FALSE(r.bugFound)
        << r.failing.traceText() << "\nschedulesRun=" << r.schedulesRun;
    EXPECT_GT(r.schedulesRun, 1u);
}

/** Client connects then aborts (RST) while the server accept-loops. */
struct AcceptRstScenario
{
    Kernel &k;
    Thread &t; ///< borrowed for the server guest's nonblocking reads
    NetPort port;
    InetSocketPtr listener;
    std::atomic<bool> clientDone{false};
    bool accepted = false;
    bool childSettled = false; ///< read hit RST, EOF, or drained out

    AcceptRstScenario(Kernel &kk, Thread &tt, NetPort p)
        : k(kk), t(tt), port(p)
    {
        listener = k.net().socket(NetProto::Stream);
        listener->setNonblocking(true);
        listener->bind(0, port);
        listener->listen(2);
    }

    void
    spawn(SchedRail &sr)
    {
        sr.spawn("client", [this] {
            auto c = k.net().socket(NetProto::Stream);
            if (c->connectTo(1, port).ok())
                c->abort(); // RST instead of FIN
            else
                c->closed();
            clientDone.store(true, std::memory_order_relaxed);
        });
        sr.spawn("server", [this] {
            SchedRail &sr = SchedRail::global();
            InetSocketPtr child;
            for (;;) {
                SyscallResult r = listener->accept(child);
                if (r.ok())
                    break;
                if (clientDone.load(std::memory_order_relaxed)) {
                    // The RST beat us to the backlog: nothing to
                    // accept is a legal outcome, not a hang.
                    childSettled = true;
                    return;
                }
                sr.pass("test.awaitConn");
            }
            accepted = true;
            child->setNonblocking(true);
            // Once the client is done its RST has been delivered
            // (loopback delivery is synchronous), so one read settles
            // the child: CONNRESET, or EOF on an already-dead child.
            while (!clientDone.load(std::memory_order_relaxed))
                sr.pass("test.awaitRst");
            Bytes buf;
            SyscallResult r = child->read(t, buf, 16);
            childSettled = (!r.ok() && r.err == lnx::CONNRESET) ||
                           (r.ok() && r.value == 0);
            child->closed();
        });
    }
};

TEST_F(NetRailTest, AcceptVsRstSurvivesRandomSweep)
{
    int acceptedRuns = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        SchedOptions opt;
        opt.policy = SchedPolicy::Random;
        opt.seed = seed;
        rail_.arm(opt);
        AcceptRstScenario sc(kernel_, *thread_, nextPort());
        sc.spawn(rail_);
        SchedResult r = rail_.run();
        rail_.disarm();
        EXPECT_TRUE(r.completed && !r.deadlocked)
            << "seed " << seed << "\n"
            << r.traceText();
        EXPECT_TRUE(sc.childSettled) << "seed " << seed;
        if (sc.accepted)
            ++acceptedRuns;
    }
    // The race is real: across the sweep both sides win sometimes.
    EXPECT_GT(acceptedRuns, 0);
}

TEST_F(NetRailTest, AcceptVsRstSurvivesExploration)
{
    AcceptRstScenario *sc = nullptr;
    std::vector<std::unique_ptr<AcceptRstScenario>> keep;
    auto setup = [this, &sc, &keep] {
        keep.push_back(std::make_unique<AcceptRstScenario>(
            kernel_, *thread_, nextPort()));
        sc = keep.back().get();
        sc->spawn(rail_);
    };
    auto ok = [&sc] { return sc->childSettled; };
    ExploreOptions eo;
    eo.maxPreemptions = 1;
    eo.maxSchedules = 600;
    ExploreResult r = exploreSchedules(rail_, setup, ok, eo);
    EXPECT_FALSE(r.bugFound)
        << r.failing.traceText() << "\nschedulesRun=" << r.schedulesRun;
}

/**
 * The planted ordering bug: two acceptors run a non-atomic
 * poll-then-accept pair against one pending connection. The pending
 * child can be claimed between an acceptor's readable poll and its
 * accept call (the yield point at accept entry is exactly the race
 * window), so the loser sees readable-then-EAGAIN — a "phantom"
 * wakeup the buggy code does not expect.
 */
struct DoubleAcceptScenario
{
    Kernel &k;
    NetPort port;
    InetSocketPtr listener;
    InetSocketPtr client;
    std::vector<InetSocketPtr> children;
    int accepted = 0;
    int phantom = 0; ///< readable poll followed by EAGAIN accept

    DoubleAcceptScenario(Kernel &kk, NetPort p) : k(kk), port(p)
    {
        listener = k.net().socket(NetProto::Stream);
        listener->setNonblocking(true);
        listener->bind(0, port);
        listener->listen(2);
    }

    void
    spawn(SchedRail &sr)
    {
        sr.spawn("client", [this] {
            client = k.net().socket(NetProto::Stream);
            client->connectTo(1, port);
        });
        auto acceptor = [this] {
            // PLANTED BUG: poll and accept are two steps, not one.
            if (listener->poll().readable) {
                InetSocketPtr child;
                SyscallResult r = listener->accept(child);
                if (r.ok()) {
                    ++accepted;
                    children.push_back(child);
                } else {
                    ++phantom;
                }
            }
        };
        sr.spawn("acceptorA", acceptor);
        sr.spawn("acceptorB", acceptor);
    }
};

struct DoubleAcceptOutcome
{
    SchedResult result;
    int accepted = 0;
    int phantom = 0;
};

DoubleAcceptOutcome
runDoubleAccept(Kernel &kernel, SchedPolicy policy, std::uint64_t seed,
                std::vector<std::uint32_t> schedule = {})
{
    SchedRail &sr = SchedRail::global();
    SchedOptions opt;
    opt.policy = policy;
    opt.seed = seed;
    opt.schedule = std::move(schedule);
    sr.arm(opt);

    DoubleAcceptScenario sc(kernel, nextPort());
    sc.spawn(sr);

    DoubleAcceptOutcome out;
    out.result = sr.run();
    sr.disarm();
    out.accepted = sc.accepted;
    out.phantom = sc.phantom;
    return out;
}

TEST_F(NetRailTest, DoubleAcceptBugNeedsAPreemption)
{
    DoubleAcceptScenario *sc = nullptr;
    std::vector<std::unique_ptr<DoubleAcceptScenario>> keep;
    auto setup = [this, &sc, &keep] {
        keep.push_back(
            std::make_unique<DoubleAcceptScenario>(kernel_, nextPort()));
        sc = keep.back().get();
        sc->spawn(rail_);
    };
    auto ok = [&sc] { return sc->phantom == 0; };

    // Non-preemptive schedules keep each poll+accept pair atomic.
    ExploreOptions atomic_eo;
    atomic_eo.maxPreemptions = 0;
    atomic_eo.maxSchedules = 600;
    ExploreResult clean = exploreSchedules(rail_, setup, ok, atomic_eo);
    EXPECT_FALSE(clean.bugFound) << clean.failing.traceText();

    // One preemption opens the poll->accept window and finds the bug.
    ExploreOptions eo;
    eo.maxPreemptions = 1;
    eo.maxSchedules = 2000;
    ExploreResult r = exploreSchedules(rail_, setup, ok, eo);
    ASSERT_TRUE(r.bugFound) << "schedulesRun=" << r.schedulesRun;
    EXPECT_FALSE(r.failing.deadlocked);
    EXPECT_FALSE(r.failingSchedule.empty());
}

TEST_F(NetRailTest, DoubleAcceptFailingScheduleIsPinnable)
{
    DoubleAcceptScenario *sc = nullptr;
    std::vector<std::unique_ptr<DoubleAcceptScenario>> keep;
    auto setup = [this, &sc, &keep] {
        keep.push_back(
            std::make_unique<DoubleAcceptScenario>(kernel_, nextPort()));
        sc = keep.back().get();
        sc->spawn(rail_);
    };
    auto ok = [&sc] { return sc->phantom == 0; };
    ExploreOptions eo;
    eo.maxPreemptions = 1;
    eo.maxSchedules = 2000;
    ExploreResult found = exploreSchedules(rail_, setup, ok, eo);
    ASSERT_TRUE(found.bugFound);

    // Round-trip the failing schedule through the trace artifact
    // format, then replay it: same interleaving, same phantom accept.
    std::vector<std::uint32_t> pinned =
        SchedResult::parseSchedule(found.failing.traceText());
    ASSERT_EQ(pinned, found.failing.schedule());
    DoubleAcceptOutcome rep =
        runDoubleAccept(kernel_, SchedPolicy::Replay, 0, pinned);
    EXPECT_FALSE(rep.result.diverged);
    EXPECT_TRUE(rep.result.completed);
    EXPECT_EQ(rep.phantom, 1);
    EXPECT_EQ(rep.accepted, 1);
    EXPECT_EQ(rep.result.traceText(), found.failing.traceText());
}

} // namespace
} // namespace cider::kernel
