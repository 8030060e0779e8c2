/**
 * @file
 * AF_INET sockets over a TCP-lite/UDP-lite protocol core.
 *
 * The paper's third duct-tape subsystem needs network reachability for
 * foreign apps; this layer provides it without a host network. Frames
 * travel synchronously on the sender's host thread: a transmit charges
 * the sender's CostClock (per-segment protocol work plus NIC link
 * latency from the device profile) and is delivered by the loopback
 * fabric into NetStack::input() before the transmit call returns, so
 * a seeded run's virtual-time series is bit-identical across repeats
 * even under FaultRail drop/duplicate/reorder storms.
 *
 * Layering: the kernel owns the stack and the socket objects; NICs
 * live in src/iokit and reach back only through the abstract NetDevice
 * interface below (the kernel never includes iokit headers).
 *
 * TCP-lite keeps the parts that make loss observable and recoverable —
 * SYN/SYNACK/ACK handshake with listener backlog, cumulative acks over
 * a byte sequence space, out-of-order reassembly, receiver-advertised
 * flow-control window, dup-ack fast retransmit — and drops what a
 * deterministic simulation does not need (checksums, TIME_WAIT, RTT
 * estimation). There is no timer wheel: retransmission is driven by
 * explicit pump() calls (ioctl netio::PUMP), the virtual-time analogue
 * of the softirq retransmit timer.
 */

#ifndef CIDER_KERNEL_NET_H
#define CIDER_KERNEL_NET_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "kernel/file.h"

namespace cider::hw {
struct DeviceProfile;
} // namespace cider::hw

namespace cider::kernel {

using NetAddr = std::uint32_t;
using NetPort = std::uint16_t;

namespace netflag {
constexpr std::uint8_t SYN = 0x1;
constexpr std::uint8_t ACK = 0x2;
constexpr std::uint8_t FIN = 0x4;
constexpr std::uint8_t RST = 0x8;
} // namespace netflag

/** ioctl requests understood by InetSocket (SIOCDEVPRIVATE range). */
namespace netio {
/** Drive retransmit/window machinery (softirq-timer analogue). */
constexpr std::uint64_t PUMP = 0x89F0;
/** Set the receive-buffer capacity; arg is a std::size_t*. */
constexpr std::uint64_t RCVBUF = 0x89F1;
/** FIONBIO: nonzero int* arg switches the socket nonblocking. */
constexpr std::uint64_t FIONBIO = 0x5421;
} // namespace netio

enum class NetProto : std::uint8_t
{
    Stream, // TCP-lite
    Dgram,  // UDP-lite
};

/** One frame on the simulated wire. */
struct NetFrame
{
    NetProto proto = NetProto::Stream;
    std::uint8_t flags = 0;
    NetAddr srcAddr = 0;
    NetAddr dstAddr = 0;
    NetPort srcPort = 0;
    NetPort dstPort = 0;
    /** First payload byte's position in the sender's sequence space
     *  (FIN consumes one sequence number, SYN none). */
    std::uint32_t seq = 0;
    /** Cumulative ack: next sequence number expected from the peer. */
    std::uint32_t ack = 0;
    /** Receiver-advertised window (bytes the sender may have in
     *  flight past @c ack). */
    std::uint32_t window = 0;
    Bytes payload;
};

/**
 * What the kernel knows about a NIC. Implemented by the I/O Kit
 * IONetworkInterface; transmit() pushes a frame toward the fabric and
 * returns false when the device dropped it (ring overflow, link down).
 */
class NetDevice
{
  public:
    virtual ~NetDevice() = default;
    virtual const std::string &ifName() const = 0;
    virtual NetAddr address() const = 0;
    virtual bool transmit(const NetFrame &frame) = 0;
    /** One-line stats summary for /proc/cider/net (optional). */
    virtual std::string statsLine() const { return {}; }
};

/** Aggregate stack counters (leak audit + /proc/cider/net). */
struct NetStats
{
    std::uint64_t socketsLive = 0;
    std::uint64_t socketsCreated = 0;
    std::uint64_t framesRouted = 0;
    std::uint64_t framesNoRoute = 0;
    std::uint64_t framesNoPort = 0;
    std::uint64_t resetsSent = 0;
    std::uint64_t synRefused = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t dupSegments = 0;
    std::uint64_t oooQueued = 0;
    std::uint64_t dgramDrops = 0;
    /** Bytes sitting in bound sockets' send/receive buffers. */
    std::uint64_t bufferedBytes = 0;
};

class NetStack;
class InetSocket;
using InetSocketPtr = std::shared_ptr<InetSocket>;

/**
 * An AF_INET endpoint (stream or datagram). All public operations are
 * safe to call from any simulated thread; the per-socket mutex is
 * never held across a transmit, so synchronous loopback delivery can
 * re-enter the stack without deadlock. SchedRail yield points sit at
 * operation entry, before any lock.
 */
class InetSocket : public OpenFile,
                   public std::enable_shared_from_this<InetSocket>
{
  public:
    enum class State
    {
        Closed,      // fresh or fully shut down
        Bound,       // has a local address
        Listening,   // passive open
        SynSent,     // active open in progress
        SynRcvd,     // passive child, handshake incomplete
        Established, // data may flow
        Reset,       // peer aborted (RST seen)
        Dead,        // detached from the stack
    };

    InetSocket(NetStack &stack, NetProto proto);
    ~InetSocket() override;

    std::string kind() const override
    {
        return proto_ == NetProto::Stream ? "inet" : "inet-dgram";
    }

    SyscallResult read(Thread &t, Bytes &out, std::size_t n) override;
    SyscallResult write(Thread &t, const Bytes &data) override;
    SyscallResult ioctl(Thread &t, std::uint64_t req, void *arg) override;
    PollState poll() const override;
    void closed() override;

    /** Bind to (addr, port); addr 0 listens on every interface and
     *  port 0 picks an ephemeral port. */
    SyscallResult bind(NetAddr addr, NetPort port);
    SyscallResult listen(int backlog);
    /** Pop a completed connection; EAGAIN when nonblocking and none
     *  is pending. The returned socket may already carry data — or an
     *  RST — from an eager peer. */
    SyscallResult accept(InetSocketPtr &out);
    /** Active open. Never blocks on a host primitive: loopback
     *  delivery is synchronous, so the handshake resolves within the
     *  bounded SYN-retry loop or fails (ECONNREFUSED on RST,
     *  ETIMEDOUT when a fault storm eats every SYN). */
    SyscallResult connectTo(NetAddr addr, NetPort port);
    SyscallResult shutdownHow(int how); // 0=RD 1=WR 2=RDWR
    /** Abortive close: RST the peer and detach (close(2) with unread
     *  data does this implicitly, as TCP does). */
    void abort();
    /** Retransmit-timer analogue; also reopens a zero window. */
    void pump();

    SyscallResult sendTo(Thread &t, NetAddr addr, NetPort port,
                         const Bytes &data);
    SyscallResult recvFrom(Thread &t, Bytes &out, std::size_t n,
                           NetAddr *src_addr, NetPort *src_port);

    void setNonblocking(bool nb) { nonblock_.store(nb); }
    void setRcvCap(std::size_t cap);

    State state() const;
    NetProto proto() const { return proto_; }
    NetAddr localAddr() const { return localAddr_; }
    NetPort localPort() const { return localPort_; }
    std::uint64_t retransmitCount() const { return retransmits_; }

    /** One "state line" for /proc/cider/net. */
    std::string describe() const;

  private:
    friend class NetStack;

    static constexpr std::size_t kSegSize = 1024;
    static constexpr std::size_t kSndCap = 64 * 1024;
    static constexpr std::size_t kDgramQueueCap = 64;
    static constexpr int kConnectAttempts = 6;
    static constexpr int kStalePumpsBeforeRto = 2;
    static constexpr std::size_t kOooCap = 64;

    struct Dgram
    {
        NetAddr srcAddr;
        NetPort srcPort;
        Bytes data;
    };

    /** What input() should do after a frame was absorbed. */
    enum class InputVerdict
    {
        None,
        Promoted, // SynRcvd child completed: enqueue on the listener
        ConnDead, // RST processed: unlink the connection entry
    };

    // Frame handlers (called by NetStack with no stack lock held;
    // they take the socket lock and append any protocol replies to
    // @p replies for the caller to transmit after unlock).
    InputVerdict streamInput(const NetFrame &frame,
                             std::vector<NetFrame> &replies);
    void dgramInput(const NetFrame &frame);
    /** Listener side of a SYN: create a SynRcvd child or refuse. */
    InetSocketPtr handleSyn(const NetFrame &frame, bool &refused);
    /** Hand a promoted child to accept(); abort it when the listener
     *  has closed, since nobody will ever accept it. */
    void enqueuePending(const InetSocketPtr &child);
    /** A half-open child died before promotion: free its backlog slot. */
    void childAborted(const InetSocketPtr &child);

    // All *Locked helpers require mu_ held.
    void buildSegmentsLocked(std::vector<NetFrame> &out);
    void retransmitLocked(std::vector<NetFrame> &out);
    NetFrame frameLocked(std::uint8_t flags, std::uint32_t seq,
                         Bytes payload = {}) const;
    std::uint32_t advertisedWindowLocked() const;
    void absorbDataLocked(const NetFrame &frame,
                          std::vector<NetFrame> &replies);
    void absorbAckLocked(const NetFrame &frame,
                         std::vector<NetFrame> &replies);
    bool eofReadyLocked() const;
    void sendFrames(const std::vector<NetFrame> &frames);

    NetStack &stack_;
    const NetProto proto_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<bool> nonblock_{false};

    State state_ = State::Closed;
    NetAddr localAddr_ = 0;
    NetPort localPort_ = 0;
    NetAddr remoteAddr_ = 0;
    NetPort remotePort_ = 0;

    // --- send side (stream) ---
    std::deque<std::uint8_t> sndBuf_; // bytes [sndUna_, una+size)
    std::uint32_t sndUna_ = 0;        // oldest unacked seq
    std::uint32_t sndNext_ = 0;       // next seq to transmit
    std::uint32_t peerWindow_ = 0;
    bool finPending_ = false;
    bool finSent_ = false;
    bool finAcked_ = false;
    std::uint32_t finSeq_ = 0;
    int dupAcks_ = 0;
    std::uint32_t lastPumpUna_ = 0;
    int stalePumps_ = 0;

    // --- receive side (stream) ---
    std::deque<std::uint8_t> rcvBuf_;
    std::size_t rcvCap_ = 64 * 1024;
    std::uint32_t rcvNext_ = 0;
    std::map<std::uint32_t, Bytes> ooo_;
    std::size_t oooBytes_ = 0;
    bool peerFin_ = false;         // FIN consumed at rcvNext_
    bool peerFinSeen_ = false;     // FIN seq recorded (maybe early)
    std::uint32_t peerFinSeq_ = 0;
    bool rdShut_ = false;

    // --- listener ---
    int backlog_ = 0;
    /** Passive children still in SynRcvd; each holds a backlog slot
     *  and is aborted if the listener closes first. */
    std::vector<InetSocketPtr> halfOpen_;
    std::deque<InetSocketPtr> pendingAccept_;
    std::weak_ptr<InetSocket> listener_; // set on passive children

    // --- datagram ---
    std::deque<Dgram> dgrams_;

    std::uint64_t retransmits_ = 0;
    std::uint64_t dupSegments_ = 0;
};

/**
 * The AF_INET stack: port tables, connection lookup, and the route
 * from sockets to attached NICs. Owned by the Kernel; NICs attach at
 * I/O Kit driver start. The stack lock covers only the tables — it is
 * released before any socket lock is taken and before any transmit,
 * so lock order is always {stack} then {one socket}, never two
 * sockets and never socket-then-stack.
 */
class NetStack
{
  public:
    explicit NetStack(const hw::DeviceProfile &profile);

    const hw::DeviceProfile &profile() const { return profile_; }

    void attach(NetDevice *dev);
    void detach(NetDevice *dev);
    /** Devices currently attached (for /proc and tests). */
    std::vector<NetDevice *> devices() const;

    InetSocketPtr socket(NetProto proto);

    /** Entry point for frames delivered by a NIC. May synchronously
     *  emit bounded protocol replies (SYNACK/ACK/RST) through the
     *  same NIC path; data transmission is never initiated here. */
    void input(const NetFrame &frame);

    /** Route @p frame out through an attached device. Prefers the
     *  device owning srcAddr; charges nothing itself (the NIC model
     *  charges link latency). */
    bool transmitFrame(const NetFrame &frame);

    NetStats stats() const;
    std::string dump() const;

    /** First attached device's address (default source for sockets
     *  bound to the wildcard address); 0 when no NIC is attached. */
    NetAddr defaultAddr() const;

  private:
    friend class InetSocket;

    using PortKey = std::pair<NetAddr, NetPort>;
    struct ConnKey
    {
        NetAddr localAddr;
        NetAddr remoteAddr;
        NetPort localPort;
        NetPort remotePort;
        bool operator<(const ConnKey &o) const
        {
            return std::tie(localAddr, remoteAddr, localPort,
                            remotePort) <
                   std::tie(o.localAddr, o.remoteAddr, o.localPort,
                            o.remotePort);
        }
    };

    NetPort ephemeralPort();
    SyscallResult bindSocket(const InetSocketPtr &sock, NetAddr addr,
                             NetPort port, NetProto proto,
                             bool listening);
    void registerConn(const InetSocketPtr &sock);
    void eraseConn(const InetSocket &sock);
    void unbindListener(const InetSocket &sock);
    void unbindDgram(const InetSocket &sock);
    void sendRst(const NetFrame &cause);

    const hw::DeviceProfile &profile_;
    mutable std::mutex mu_;
    std::vector<NetDevice *> devices_;
    std::map<PortKey, InetSocketPtr> listeners_;
    std::map<ConnKey, InetSocketPtr> conns_;
    std::map<PortKey, InetSocketPtr> dgrams_;
    std::atomic<std::uint32_t> ephemeral_{0};

    std::atomic<std::uint64_t> socketsLive_{0};
    std::atomic<std::uint64_t> socketsCreated_{0};
    std::atomic<std::uint64_t> framesRouted_{0};
    std::atomic<std::uint64_t> framesNoRoute_{0};
    std::atomic<std::uint64_t> framesNoPort_{0};
    std::atomic<std::uint64_t> resetsSent_{0};
    std::atomic<std::uint64_t> synRefused_{0};
    std::atomic<std::uint64_t> retransmits_{0};
    std::atomic<std::uint64_t> dupSegments_{0};
    std::atomic<std::uint64_t> oooQueued_{0};
    std::atomic<std::uint64_t> dgramDrops_{0};
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_NET_H
