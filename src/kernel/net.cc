#include "kernel/net.h"

#include <algorithm>
#include <sstream>

#include "base/cost_clock.h"
#include "hw/device_profile.h"
#include "kernel/sched_rail.h"
#include "kernel/thread.h"

namespace cider::kernel {

namespace {

const char *stateName(InetSocket::State s)
{
    switch (s) {
    case InetSocket::State::Closed: return "closed";
    case InetSocket::State::Bound: return "bound";
    case InetSocket::State::Listening: return "listen";
    case InetSocket::State::SynSent: return "syn-sent";
    case InetSocket::State::SynRcvd: return "syn-rcvd";
    case InetSocket::State::Established: return "established";
    case InetSocket::State::Reset: return "reset";
    case InetSocket::State::Dead: return "dead";
    }
    return "?";
}

} // namespace

// ---------------------------------------------------------------------------
// InetSocket
// ---------------------------------------------------------------------------

InetSocket::InetSocket(NetStack &stack, NetProto proto)
    : stack_(stack), proto_(proto)
{
    stack_.socketsLive_.fetch_add(1);
    stack_.socketsCreated_.fetch_add(1);
}

InetSocket::~InetSocket()
{
    stack_.socketsLive_.fetch_sub(1);
    stack_.retransmits_.fetch_add(retransmits_);
    stack_.dupSegments_.fetch_add(dupSegments_);
}

InetSocket::State InetSocket::state() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_;
}

void InetSocket::setRcvCap(std::size_t cap)
{
    std::lock_guard<std::mutex> lk(mu_);
    rcvCap_ = std::max<std::size_t>(cap, kSegSize);
}

NetFrame InetSocket::frameLocked(std::uint8_t flags, std::uint32_t seq,
                                 Bytes payload) const
{
    NetFrame f;
    f.proto = proto_;
    f.flags = flags;
    f.srcAddr = localAddr_;
    f.dstAddr = remoteAddr_;
    f.srcPort = localPort_;
    f.dstPort = remotePort_;
    f.seq = seq;
    f.ack = rcvNext_;
    f.window = advertisedWindowLocked();
    f.payload = std::move(payload);
    return f;
}

std::uint32_t InetSocket::advertisedWindowLocked() const
{
    std::size_t used = rcvBuf_.size() + oooBytes_;
    return used >= rcvCap_
               ? 0
               : static_cast<std::uint32_t>(rcvCap_ - used);
}

void InetSocket::sendFrames(const std::vector<NetFrame> &frames)
{
    for (const NetFrame &f : frames) {
        charge(stack_.profile().netSegmentNs);
        stack_.transmitFrame(f);
    }
}

SyscallResult InetSocket::bind(NetAddr addr, NetPort port)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ != State::Closed)
            return SyscallResult::failure(lnx::INVAL);
    }
    return stack_.bindSocket(shared_from_this(), addr, port, proto_,
                             false);
}

SyscallResult InetSocket::listen(int backlog)
{
    if (proto_ != NetProto::Stream)
        return SyscallResult::failure(lnx::OPNOTSUPP);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ == State::Listening) {
            backlog_ = std::max(backlog, 1);
            return SyscallResult::success(0);
        }
        if (state_ != State::Bound)
            return SyscallResult::failure(lnx::INVAL);
    }
    SyscallResult r = stack_.bindSocket(shared_from_this(), localAddr_,
                                        localPort_, proto_, true);
    if (!r.ok())
        return r;
    std::lock_guard<std::mutex> lk(mu_);
    state_ = State::Listening;
    backlog_ = std::max(backlog, 1);
    return SyscallResult::success(0);
}

SyscallResult InetSocket::accept(InetSocketPtr &out)
{
    CIDER_SCHED_POINT("net.accept");
    std::unique_lock<std::mutex> lk(mu_);
    if (state_ != State::Listening)
        return SyscallResult::failure(lnx::INVAL);
    while (pendingAccept_.empty()) {
        if (nonblock_.load())
            return SyscallResult::failure(lnx::AGAIN);
        cv_.wait(lk);
        if (state_ != State::Listening)
            return SyscallResult::failure(lnx::INVAL);
    }
    out = pendingAccept_.front();
    pendingAccept_.pop_front();
    return SyscallResult::success(0);
}

SyscallResult InetSocket::connectTo(NetAddr addr, NetPort port)
{
    CIDER_SCHED_POINT("net.connect");
    if (proto_ == NetProto::Dgram) {
        // Datagram "connect" just pins the default destination.
        std::lock_guard<std::mutex> lk(mu_);
        remoteAddr_ = addr;
        remotePort_ = port;
        return SyscallResult::success(0);
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ == State::Established || state_ == State::SynSent)
            return SyscallResult::failure(lnx::ALREADY);
        if (state_ != State::Closed && state_ != State::Bound)
            return SyscallResult::failure(lnx::INVAL);
    }
    if (localPort_ == 0) {
        SyscallResult r = stack_.bindSocket(
            shared_from_this(), 0, 0, proto_, false);
        if (!r.ok())
            return r;
    }
    NetFrame syn;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (localAddr_ == 0)
            localAddr_ = stack_.defaultAddr();
        if (localAddr_ == 0)
            return SyscallResult::failure(lnx::NETUNREACH);
        remoteAddr_ = addr;
        remotePort_ = port;
        state_ = State::SynSent;
        syn = frameLocked(netflag::SYN, 0);
        syn.window = advertisedWindowLocked();
    }
    stack_.registerConn(shared_from_this());

    // Loopback delivery is synchronous, so each SYN either resolves
    // the handshake before transmitFrame returns or was eaten by a
    // fault site / full backlog; retry a bounded number of times.
    for (int attempt = 0; attempt < kConnectAttempts; ++attempt) {
        charge(stack_.profile().netSegmentNs << attempt); // backoff
        stack_.transmitFrame(syn);
        std::unique_lock<std::mutex> lk(mu_);
        if (state_ == State::Established)
            return SyscallResult::success(0);
        if (state_ == State::Reset || state_ == State::Dead) {
            state_ = State::Dead;
            lk.unlock();
            stack_.eraseConn(*this);
            return SyscallResult::failure(lnx::CONNREFUSED);
        }
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        state_ = State::Dead;
    }
    stack_.eraseConn(*this);
    return SyscallResult::failure(lnx::TIMEDOUT);
}

SyscallResult InetSocket::read(Thread &t, Bytes &out, std::size_t n)
{
    (void)t;
    CIDER_SCHED_POINT("net.recv");
    if (proto_ == NetProto::Dgram)
        return recvFrom(t, out, n, nullptr, nullptr);

    bool windowWasClosed = false;
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            if (!rcvBuf_.empty())
                break;
            if (state_ == State::Reset)
                return SyscallResult::failure(lnx::CONNRESET);
            if (rdShut_ || eofReadyLocked())
                return SyscallResult::success(0);
            if (state_ != State::Established &&
                state_ != State::SynRcvd)
                return SyscallResult::failure(lnx::NOTCONN);
            if (nonblock_.load())
                return SyscallResult::failure(lnx::AGAIN);
            cv_.wait(lk);
        }
        windowWasClosed = advertisedWindowLocked() == 0;
        std::size_t take = std::min(n, rcvBuf_.size());
        out.assign(rcvBuf_.begin(),
                   rcvBuf_.begin() + static_cast<long>(take));
        rcvBuf_.erase(rcvBuf_.begin(),
                      rcvBuf_.begin() + static_cast<long>(take));
    }
    charge(stack_.profile().netSegmentNs / 2);
    if (windowWasClosed) {
        // The peer saw window 0 and stalled; tell it we have room.
        std::vector<NetFrame> upd;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (state_ == State::Established)
                upd.push_back(frameLocked(netflag::ACK, sndNext_));
        }
        sendFrames(upd);
    }
    return SyscallResult::success(
        static_cast<std::int64_t>(out.size()));
}

SyscallResult InetSocket::write(Thread &t, const Bytes &data)
{
    (void)t;
    CIDER_SCHED_POINT("net.send");
    if (proto_ == NetProto::Dgram)
        return sendTo(t, remoteAddr_, remotePort_, data);
    if (data.empty())
        return SyscallResult::success(0);

    std::vector<NetFrame> frames;
    std::size_t taken = 0;
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            if (state_ == State::Reset)
                return SyscallResult::failure(lnx::CONNRESET);
            if (finPending_ || finSent_ || state_ == State::Dead)
                return SyscallResult::failure(lnx::PIPE);
            if (state_ != State::Established)
                return SyscallResult::failure(lnx::NOTCONN);
            if (sndBuf_.size() < kSndCap)
                break;
            if (nonblock_.load())
                return SyscallResult::failure(lnx::AGAIN);
            cv_.wait(lk);
        }
        taken = std::min(data.size(), kSndCap - sndBuf_.size());
        sndBuf_.insert(sndBuf_.end(), data.begin(),
                       data.begin() + static_cast<long>(taken));
        buildSegmentsLocked(frames);
    }
    sendFrames(frames);
    return SyscallResult::success(static_cast<std::int64_t>(taken));
}

void InetSocket::buildSegmentsLocked(std::vector<NetFrame> &out)
{
    // Respect the peer's advertised window: never put more than
    // peerWindow_ bytes in flight past sndUna_.
    for (;;) {
        std::uint32_t inflight = sndNext_ - sndUna_;
        std::uint32_t avail = static_cast<std::uint32_t>(
            sndUna_ + sndBuf_.size() - sndNext_);
        if (avail == 0 || inflight >= peerWindow_)
            break;
        std::uint32_t len = std::min<std::uint32_t>(
            {static_cast<std::uint32_t>(kSegSize), avail,
             peerWindow_ - inflight});
        std::size_t off = sndNext_ - sndUna_;
        Bytes payload(sndBuf_.begin() + static_cast<long>(off),
                      sndBuf_.begin() +
                          static_cast<long>(off + len));
        out.push_back(
            frameLocked(netflag::ACK, sndNext_, std::move(payload)));
        sndNext_ += len;
    }
    if (finPending_ && !finSent_ &&
        sndNext_ == sndUna_ + sndBuf_.size()) {
        finSeq_ = sndNext_;
        finSent_ = true;
        sndNext_ += 1; // FIN consumes one sequence number
        out.push_back(frameLocked(netflag::FIN | netflag::ACK,
                                  finSeq_));
    }
}

void InetSocket::retransmitLocked(std::vector<NetFrame> &out)
{
    if (sndUna_ == sndNext_)
        return;
    std::uint32_t dataEnd =
        sndUna_ + static_cast<std::uint32_t>(sndBuf_.size());
    if (sndUna_ < dataEnd) {
        std::uint32_t len = std::min<std::uint32_t>(
            static_cast<std::uint32_t>(kSegSize), dataEnd - sndUna_);
        Bytes payload(sndBuf_.begin(),
                      sndBuf_.begin() + static_cast<long>(len));
        out.push_back(
            frameLocked(netflag::ACK, sndUna_, std::move(payload)));
    } else if (finSent_ && !finAcked_) {
        out.push_back(frameLocked(netflag::FIN | netflag::ACK,
                                  finSeq_));
    }
    ++retransmits_;
}

void InetSocket::pump()
{
    CIDER_SCHED_POINT("net.pump");
    std::vector<NetFrame> frames;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (proto_ != NetProto::Stream)
            return;
        if (state_ == State::SynSent) {
            frames.push_back(frameLocked(netflag::SYN, 0));
        } else if (sndUna_ != sndNext_) {
            if (sndUna_ == lastPumpUna_) {
                if (++stalePumps_ >= kStalePumpsBeforeRto) {
                    retransmitLocked(frames);
                    stalePumps_ = 0;
                }
            } else {
                stalePumps_ = 0;
            }
            lastPumpUna_ = sndUna_;
        }
        // A window that re-opened between writes lets queued bytes go.
        buildSegmentsLocked(frames);
    }
    sendFrames(frames);
}

SyscallResult InetSocket::shutdownHow(int how)
{
    CIDER_SCHED_POINT("net.close");
    std::vector<NetFrame> frames;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (proto_ != NetProto::Stream)
            return SyscallResult::failure(lnx::OPNOTSUPP);
        if (state_ != State::Established && state_ != State::SynRcvd &&
            state_ != State::Reset)
            return SyscallResult::failure(lnx::NOTCONN);
        if (how == 0 || how == 2)
            rdShut_ = true;
        if ((how == 1 || how == 2) && !finPending_ &&
            state_ == State::Established) {
            finPending_ = true;
            buildSegmentsLocked(frames);
        }
        cv_.notify_all();
    }
    sendFrames(frames);
    return SyscallResult::success(0);
}

void InetSocket::abort()
{
    CIDER_SCHED_POINT("net.close");
    NetFrame rst;
    bool send = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ == State::Established || state_ == State::SynRcvd ||
            state_ == State::SynSent) {
            rst = frameLocked(netflag::RST, sndNext_);
            send = true;
        }
        state_ = State::Dead;
        cv_.notify_all();
    }
    if (send) {
        charge(stack_.profile().netSegmentNs);
        stack_.transmitFrame(rst);
        stack_.resetsSent_.fetch_add(1);
    }
    stack_.eraseConn(*this);
}

void InetSocket::closed()
{
    State st;
    std::vector<InetSocketPtr> orphans;
    {
        std::lock_guard<std::mutex> lk(mu_);
        st = state_;
        if (state_ == State::Listening) {
            orphans.assign(pendingAccept_.begin(),
                           pendingAccept_.end());
            orphans.insert(orphans.end(), halfOpen_.begin(),
                           halfOpen_.end());
            pendingAccept_.clear();
            halfOpen_.clear();
            state_ = State::Dead;
        }
        cv_.notify_all();
    }
    switch (st) {
    case State::Listening:
        stack_.unbindListener(*this);
        // Connections nobody will ever accept get aborted, as a real
        // listener teardown RSTs its accept queue; so do half-open
        // ones, which would otherwise sit in the connection table for
        // good once the handshake's last ACK and the peer's FIN are
        // lost.
        for (const InetSocketPtr &child : orphans)
            child->abort();
        break;
    case State::Established:
    case State::SynRcvd: {
        bool dirty;
        {
            std::lock_guard<std::mutex> lk(mu_);
            dirty = !rcvBuf_.empty() || !ooo_.empty();
        }
        if (dirty) {
            abort(); // close with unread data => RST, like TCP
        } else {
            shutdownHow(1);
            std::lock_guard<std::mutex> lk(mu_);
            state_ = State::Dead;
        }
        // TCP-lite has no TIME_WAIT: the connection entry dies with
        // the descriptor. A FIN lost after this point stays lost
        // (the peer's pump sees RST-on-missing-conn instead).
        stack_.eraseConn(*this);
        break;
    }
    case State::SynSent:
    case State::Reset:
        stack_.eraseConn(*this);
        break;
    default:
        break;
    }
    if (proto_ == NetProto::Dgram && localPort_ != 0)
        stack_.unbindDgram(*this);
    {
        std::lock_guard<std::mutex> lk(mu_);
        state_ = State::Dead;
    }
}

PollState InetSocket::poll() const
{
    std::lock_guard<std::mutex> lk(mu_);
    PollState ps;
    switch (proto_) {
    case NetProto::Dgram:
        ps.readable = !dgrams_.empty();
        ps.writable = true;
        break;
    case NetProto::Stream:
        if (state_ == State::Listening) {
            ps.readable = !pendingAccept_.empty();
        } else {
            ps.readable = !rcvBuf_.empty() || eofReadyLocked() ||
                          rdShut_ || state_ == State::Reset;
            ps.writable = state_ == State::Established &&
                          !finPending_ && sndBuf_.size() < kSndCap;
            ps.error = state_ == State::Reset;
        }
        break;
    }
    return ps;
}

bool InetSocket::eofReadyLocked() const
{
    return peerFin_ && rcvBuf_.empty();
}

SyscallResult InetSocket::ioctl(Thread &t, std::uint64_t req, void *arg)
{
    (void)t;
    switch (req) {
    case netio::PUMP:
        pump();
        return SyscallResult::success(0);
    case netio::FIONBIO:
        if (arg == nullptr)
            return SyscallResult::failure(lnx::INVAL);
        setNonblocking(*static_cast<int *>(arg) != 0);
        return SyscallResult::success(0);
    case netio::RCVBUF:
        if (arg == nullptr)
            return SyscallResult::failure(lnx::INVAL);
        setRcvCap(*static_cast<std::size_t *>(arg));
        return SyscallResult::success(0);
    default:
        return SyscallResult::failure(lnx::INVAL);
    }
}

SyscallResult InetSocket::sendTo(Thread &t, NetAddr addr, NetPort port,
                                 const Bytes &data)
{
    (void)t;
    CIDER_SCHED_POINT("net.send");
    if (proto_ != NetProto::Dgram)
        return SyscallResult::failure(lnx::OPNOTSUPP);
    if (addr == 0 || port == 0)
        return SyscallResult::failure(lnx::ADDRNOTAVAIL);
    if (localPort_ == 0) {
        SyscallResult r = stack_.bindSocket(
            shared_from_this(), 0, 0, proto_, false);
        if (!r.ok())
            return r;
    }
    NetFrame f;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (localAddr_ == 0)
            localAddr_ = stack_.defaultAddr();
        f = frameLocked(0, 0, data);
        f.proto = NetProto::Dgram;
        f.dstAddr = addr;
        f.dstPort = port;
    }
    charge(stack_.profile().netSegmentNs);
    stack_.transmitFrame(f);
    // UDP is fire-and-forget: an unreachable port counts a drop at
    // the stack but the send itself succeeds.
    return SyscallResult::success(
        static_cast<std::int64_t>(data.size()));
}

SyscallResult InetSocket::recvFrom(Thread &t, Bytes &out, std::size_t n,
                                   NetAddr *src_addr, NetPort *src_port)
{
    (void)t;
    CIDER_SCHED_POINT("net.recv");
    if (proto_ != NetProto::Dgram)
        return SyscallResult::failure(lnx::OPNOTSUPP);
    std::unique_lock<std::mutex> lk(mu_);
    while (dgrams_.empty()) {
        if (state_ == State::Dead)
            return SyscallResult::failure(lnx::BADF);
        if (nonblock_.load())
            return SyscallResult::failure(lnx::AGAIN);
        cv_.wait(lk);
    }
    Dgram d = std::move(dgrams_.front());
    dgrams_.pop_front();
    lk.unlock();
    charge(stack_.profile().netSegmentNs / 2);
    std::size_t take = std::min(n, d.data.size());
    out.assign(d.data.begin(),
               d.data.begin() + static_cast<long>(take));
    if (src_addr != nullptr)
        *src_addr = d.srcAddr;
    if (src_port != nullptr)
        *src_port = d.srcPort;
    return SyscallResult::success(static_cast<std::int64_t>(take));
}

// --- frame input ----------------------------------------------------------

InetSocket::InputVerdict
InetSocket::streamInput(const NetFrame &frame,
                        std::vector<NetFrame> &replies)
{
    CIDER_SCHED_POINT("net.input");
    std::lock_guard<std::mutex> lk(mu_);
    if (state_ == State::Dead)
        return InputVerdict::ConnDead;

    if (frame.flags & netflag::RST) {
        state_ = State::Reset;
        cv_.notify_all();
        return InputVerdict::ConnDead;
    }

    bool promoted = false;
    if (frame.flags & netflag::SYN) {
        if (frame.flags & netflag::ACK) {
            // SYNACK for our active open.
            if (state_ == State::SynSent) {
                state_ = State::Established;
                peerWindow_ = frame.window;
                cv_.notify_all();
            }
            replies.push_back(frameLocked(netflag::ACK, sndNext_));
            return InputVerdict::None;
        }
        // Duplicate SYN reaching a passive child: re-offer SYNACK.
        if (state_ == State::SynRcvd || state_ == State::Established)
            replies.push_back(
                frameLocked(netflag::SYN | netflag::ACK, 0));
        return InputVerdict::None;
    }

    // Any non-SYN frame from the peer proves the handshake's final
    // ACK reached the wire even if the ACK frame itself was dropped.
    if (state_ == State::SynRcvd) {
        state_ = State::Established;
        promoted = true;
        cv_.notify_all();
    }

    if (frame.flags & netflag::ACK)
        absorbAckLocked(frame, replies);
    if (!frame.payload.empty())
        absorbDataLocked(frame, replies);
    if (frame.flags & netflag::FIN) {
        peerFinSeen_ = true;
        peerFinSeq_ = frame.seq;
    }
    if (peerFinSeen_ && !peerFin_ && rcvNext_ == peerFinSeq_ &&
        ooo_.empty()) {
        rcvNext_ = peerFinSeq_ + 1; // consume the FIN's sequence slot
        peerFin_ = true;
        cv_.notify_all();
    }
    if (frame.flags & netflag::FIN)
        replies.push_back(frameLocked(netflag::ACK, sndNext_));

    return promoted ? InputVerdict::Promoted : InputVerdict::None;
}

void InetSocket::absorbAckLocked(const NetFrame &frame,
                                 std::vector<NetFrame> &replies)
{
    bool windowWasZero = peerWindow_ == 0;
    peerWindow_ = frame.window;
    std::uint32_t ack = frame.ack;
    std::uint32_t dataEnd =
        sndUna_ + static_cast<std::uint32_t>(sndBuf_.size()) +
        (finSent_ ? 1 : 0);
    if (ack > sndUna_ && ack <= dataEnd) {
        std::uint32_t bytes = std::min(
            ack - sndUna_,
            static_cast<std::uint32_t>(sndBuf_.size()));
        sndBuf_.erase(sndBuf_.begin(),
                      sndBuf_.begin() + static_cast<long>(bytes));
        sndUna_ = ack;
        if (finSent_ && ack == finSeq_ + 1)
            finAcked_ = true;
        dupAcks_ = 0;
        stalePumps_ = 0;
        cv_.notify_all(); // writers waiting for buffer space
    } else if (ack == sndUna_ && sndNext_ != sndUna_) {
        // Fires exactly once per stall (== 2, not >=), so the reply
        // recursion stays bounded.
        if (++dupAcks_ == 2)
            retransmitLocked(replies);
    }
    lastAckSeen_ = ack;
    // A window-reopen update (the peer drained its receive buffer)
    // releases queued bytes right away; recursion stays bounded
    // because steady-state ack advances never emit data from here.
    if (windowWasZero && peerWindow_ > 0)
        buildSegmentsLocked(replies);
}

void InetSocket::absorbDataLocked(const NetFrame &frame,
                                  std::vector<NetFrame> &replies)
{
    std::uint32_t seq = frame.seq;
    std::uint32_t len =
        static_cast<std::uint32_t>(frame.payload.size());

    if (seq + len <= rcvNext_) {
        ++dupSegments_; // pure retransmit duplicate
    } else if (seq <= rcvNext_) {
        // In-order (possibly partially duplicate) segment.
        std::uint32_t skip = rcvNext_ - seq;
        if (!rdShut_)
            rcvBuf_.insert(rcvBuf_.end(),
                           frame.payload.begin() +
                               static_cast<long>(skip),
                           frame.payload.end());
        rcvNext_ = seq + len;
        // Drain any out-of-order segments this unblocked.
        auto it = ooo_.begin();
        while (it != ooo_.end() && it->first <= rcvNext_) {
            const Bytes &seg = it->second;
            std::uint32_t send = it->first;
            std::uint32_t slen =
                static_cast<std::uint32_t>(seg.size());
            if (send + slen > rcvNext_) {
                std::uint32_t sk = rcvNext_ - send;
                if (!rdShut_)
                    rcvBuf_.insert(rcvBuf_.end(),
                                   seg.begin() +
                                       static_cast<long>(sk),
                                   seg.end());
                rcvNext_ = send + slen;
            }
            oooBytes_ -= seg.size();
            it = ooo_.erase(it);
        }
        cv_.notify_all();
    } else if (ooo_.size() < kOooCap &&
               len + oooBytes_ + rcvBuf_.size() <= rcvCap_) {
        // Future segment: park it for reassembly.
        auto [it, fresh] = ooo_.emplace(seq, frame.payload);
        if (fresh) {
            oooBytes_ += len;
            stack_.oooQueued_.fetch_add(1);
        } else {
            ++dupSegments_;
        }
    }
    // Cumulative ack (also the dup-ack that triggers fast retransmit
    // on the sender when a gap persists).
    replies.push_back(frameLocked(netflag::ACK, sndNext_));
}

void InetSocket::dgramInput(const NetFrame &frame)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (dgrams_.size() >= kDgramQueueCap) {
        stack_.dgramDrops_.fetch_add(1);
        return;
    }
    dgrams_.push_back(
        Dgram{frame.srcAddr, frame.srcPort, frame.payload});
    cv_.notify_all();
}

InetSocketPtr InetSocket::handleSyn(const NetFrame &frame,
                                    bool &refused)
{
    std::lock_guard<std::mutex> lk(mu_);
    refused = false;
    if (state_ != State::Listening ||
        pendingAccept_.size() + halfOpen_.size() >=
            static_cast<std::size_t>(backlog_)) {
        refused = true;
        return nullptr;
    }
    auto child =
        std::make_shared<InetSocket>(stack_, NetProto::Stream);
    child->localAddr_ = frame.dstAddr;
    child->localPort_ = frame.dstPort;
    child->remoteAddr_ = frame.srcAddr;
    child->remotePort_ = frame.srcPort;
    child->state_ = State::SynRcvd;
    child->peerWindow_ = frame.window;
    child->listener_ = weak_from_this();
    halfOpen_.push_back(child);
    return child;
}

void InetSocket::childAborted(const InetSocketPtr &child)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(halfOpen_, child);
}

void InetSocket::enqueuePending(const InetSocketPtr &child)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (state_ == State::Listening) {
            std::erase(halfOpen_, child);
            pendingAccept_.push_back(child);
            cv_.notify_all();
            return;
        }
    }
    // Promoted while its listener was closing (the frame completing
    // the handshake came in on another host thread): nobody will
    // accept it.
    child->abort();
}

std::string InetSocket::describe() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    os << (proto_ == NetProto::Stream ? "tcp " : "udp ") << localAddr_
       << ":" << localPort_;
    if (remotePort_ != 0 || remoteAddr_ != 0)
        os << " -> " << remoteAddr_ << ":" << remotePort_;
    os << " " << stateName(state_) << " snd=" << sndBuf_.size()
       << " rcv=" << rcvBuf_.size() << " ooo=" << oooBytes_
       << " retx=" << retransmits_;
    return os.str();
}

// ---------------------------------------------------------------------------
// NetStack
// ---------------------------------------------------------------------------

NetStack::NetStack(const hw::DeviceProfile &profile) : profile_(profile)
{}

void NetStack::attach(NetDevice *dev)
{
    std::lock_guard<std::mutex> lk(mu_);
    devices_.push_back(dev);
}

void NetStack::detach(NetDevice *dev)
{
    std::lock_guard<std::mutex> lk(mu_);
    devices_.erase(
        std::remove(devices_.begin(), devices_.end(), dev),
        devices_.end());
}

std::vector<NetDevice *> NetStack::devices() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return devices_;
}

NetAddr NetStack::defaultAddr() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return devices_.empty() ? 0 : devices_.front()->address();
}

InetSocketPtr NetStack::socket(NetProto proto)
{
    return std::make_shared<InetSocket>(*this, proto);
}

NetPort NetStack::ephemeralPort()
{
    // Lock-free so connect() can allocate while holding no lock at
    // all; collisions require 16k allocations plus a port still bound
    // after wraparound, which bindSocket reports as EADDRINUSE.
    std::uint32_t v = ephemeral_.fetch_add(1);
    return static_cast<NetPort>(49152 + (v % 16384));
}

SyscallResult NetStack::bindSocket(const InetSocketPtr &sock,
                                   NetAddr addr, NetPort port,
                                   NetProto proto, bool listening)
{
    if (port == 0)
        port = ephemeralPort();
    std::lock_guard<std::mutex> lk(mu_);
    if (addr == 0 && !listening && !devices_.empty())
        addr = devices_.front()->address();
    PortKey key{addr, port};
    auto &table = proto == NetProto::Dgram ? dgrams_ : listeners_;
    if (proto == NetProto::Dgram || listening) {
        auto [it, fresh] = table.emplace(key, sock);
        if (!fresh && it->second != sock)
            return SyscallResult::failure(lnx::ADDRINUSE);
    }
    {
        std::lock_guard<std::mutex> sl(sock->mu_);
        sock->localAddr_ = addr;
        sock->localPort_ = port;
        if (sock->state_ == InetSocket::State::Closed)
            sock->state_ = InetSocket::State::Bound;
    }
    return SyscallResult::success(0);
}

void NetStack::registerConn(const InetSocketPtr &sock)
{
    std::lock_guard<std::mutex> lk(mu_);
    conns_[ConnKey{sock->localAddr_, sock->remoteAddr_,
                   sock->localPort_, sock->remotePort_}] = sock;
}

void NetStack::eraseConn(const InetSocket &sock)
{
    std::lock_guard<std::mutex> lk(mu_);
    conns_.erase(ConnKey{sock.localAddr_, sock.remoteAddr_,
                         sock.localPort_, sock.remotePort_});
}

void NetStack::unbindListener(const InetSocket &sock)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = listeners_.find({sock.localAddr_, sock.localPort_});
    if (it != listeners_.end() && it->second.get() == &sock)
        listeners_.erase(it);
}

void NetStack::unbindDgram(const InetSocket &sock)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = dgrams_.find({sock.localAddr_, sock.localPort_});
    if (it != dgrams_.end() && it->second.get() == &sock)
        dgrams_.erase(it);
}

bool NetStack::transmitFrame(const NetFrame &frame)
{
    NetDevice *dev = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (NetDevice *d : devices_)
            if (d->address() == frame.srcAddr) {
                dev = d;
                break;
            }
        if (dev == nullptr && !devices_.empty())
            dev = devices_.front();
    }
    if (dev == nullptr) {
        framesNoRoute_.fetch_add(1);
        return false;
    }
    framesRouted_.fetch_add(1);
    return dev->transmit(frame);
}

void NetStack::sendRst(const NetFrame &cause)
{
    if (cause.flags & netflag::RST)
        return; // never RST an RST
    NetFrame rst;
    rst.proto = NetProto::Stream;
    rst.flags = netflag::RST;
    rst.srcAddr = cause.dstAddr;
    rst.dstAddr = cause.srcAddr;
    rst.srcPort = cause.dstPort;
    rst.dstPort = cause.srcPort;
    rst.ack = cause.seq;
    resetsSent_.fetch_add(1);
    transmitFrame(rst);
}

void NetStack::input(const NetFrame &frame)
{
    charge(profile_.netSegmentNs);

    if (frame.proto == NetProto::Dgram) {
        InetSocketPtr sock;
        {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = dgrams_.find({frame.dstAddr, frame.dstPort});
            if (it == dgrams_.end())
                it = dgrams_.find({0, frame.dstPort});
            if (it != dgrams_.end())
                sock = it->second;
        }
        if (sock) {
            sock->dgramInput(frame);
        } else {
            framesNoPort_.fetch_add(1);
            dgramDrops_.fetch_add(1);
        }
        return;
    }

    // Stream: established connection first, then listeners for SYNs.
    InetSocketPtr sock;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = conns_.find(ConnKey{frame.dstAddr, frame.srcAddr,
                                      frame.dstPort, frame.srcPort});
        if (it != conns_.end())
            sock = it->second;
    }
    if (sock) {
        std::vector<NetFrame> replies;
        InetSocket::InputVerdict verdict =
            sock->streamInput(frame, replies);
        if (verdict == InetSocket::InputVerdict::ConnDead) {
            eraseConn(*sock);
            // A child RST before promotion frees its backlog slot.
            if (InetSocketPtr l = sock->listener_.lock())
                l->childAborted(sock);
        }
        if (verdict == InetSocket::InputVerdict::Promoted) {
            if (InetSocketPtr l = sock->listener_.lock())
                l->enqueuePending(sock);
        }
        for (const NetFrame &r : replies) {
            charge(profile_.netSegmentNs);
            transmitFrame(r);
        }
        return;
    }

    if ((frame.flags & netflag::SYN) &&
        !(frame.flags & netflag::ACK)) {
        InetSocketPtr listener;
        {
            std::lock_guard<std::mutex> lk(mu_);
            auto it =
                listeners_.find({frame.dstAddr, frame.dstPort});
            if (it == listeners_.end())
                it = listeners_.find({0, frame.dstPort});
            if (it != listeners_.end())
                listener = it->second;
        }
        if (listener) {
            bool refused = false;
            InetSocketPtr child =
                listener->handleSyn(frame, refused);
            if (child) {
                registerConn(child);
                // The listener closed in between and aborted the child
                // before it was registered: drop the stale entry.
                if (child->state() == InetSocket::State::Dead) {
                    eraseConn(*child);
                    return;
                }
                NetFrame synack = child->frameLocked(
                    netflag::SYN | netflag::ACK, 0);
                charge(profile_.netSegmentNs);
                transmitFrame(synack);
                return;
            }
            if (refused)
                synRefused_.fetch_add(1);
        }
    }

    framesNoPort_.fetch_add(1);
    sendRst(frame);
}

NetStats NetStack::stats() const
{
    NetStats s;
    s.socketsLive = socketsLive_.load();
    s.socketsCreated = socketsCreated_.load();
    s.framesRouted = framesRouted_.load();
    s.framesNoRoute = framesNoRoute_.load();
    s.framesNoPort = framesNoPort_.load();
    s.resetsSent = resetsSent_.load();
    s.synRefused = synRefused_.load();
    s.retransmits = retransmits_.load();
    s.dupSegments = dupSegments_.load();
    s.oooQueued = oooQueued_.load();
    s.dgramDrops = dgramDrops_.load();

    std::vector<InetSocketPtr> bound;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &[k, v] : conns_)
            bound.push_back(v);
        for (const auto &[k, v] : dgrams_)
            bound.push_back(v);
    }
    for (const InetSocketPtr &sock : bound) {
        std::lock_guard<std::mutex> sl(sock->mu_);
        s.bufferedBytes += sock->sndBuf_.size() +
                           sock->rcvBuf_.size() + sock->oooBytes_;
        s.retransmits += sock->retransmits_;
        s.dupSegments += sock->dupSegments_;
    }
    return s;
}

std::string NetStack::dump() const
{
    NetStats s = stats();
    std::ostringstream os;
    os << "cider net stack\n"
       << "sockets: live=" << s.socketsLive
       << " created=" << s.socketsCreated << "\n"
       << "frames: routed=" << s.framesRouted
       << " no-route=" << s.framesNoRoute
       << " no-port=" << s.framesNoPort << "\n"
       << "tcp-lite: retx=" << s.retransmits
       << " dup-segs=" << s.dupSegments << " ooo=" << s.oooQueued
       << " rst-sent=" << s.resetsSent
       << " syn-refused=" << s.synRefused << "\n"
       << "udp-lite: drops=" << s.dgramDrops << "\n"
       << "buffered-bytes: " << s.bufferedBytes << "\n";

    std::vector<NetDevice *> devs;
    std::vector<InetSocketPtr> socks;
    {
        std::lock_guard<std::mutex> lk(mu_);
        devs = devices_;
        for (const auto &[k, v] : listeners_)
            socks.push_back(v);
        for (const auto &[k, v] : conns_)
            socks.push_back(v);
        for (const auto &[k, v] : dgrams_)
            socks.push_back(v);
    }
    os << "devices:\n";
    for (NetDevice *d : devs)
        os << "  " << d->ifName() << " addr=" << d->address() << " "
           << d->statsLine() << "\n";
    os << "sockets:\n";
    for (const InetSocketPtr &sock : socks)
        os << "  " << sock->describe() << "\n";
    return os.str();
}

} // namespace cider::kernel
