#include "kernel/unix_socket.h"

#include "hw/device_profile.h"

namespace cider::kernel {

namespace {

constexpr std::size_t kStreamCapacity = 256 * 1024;

/** One direction of a connected stream. */
std::shared_ptr<ByteChannel>
makeStream(const hw::DeviceProfile &profile)
{
    return std::make_shared<ByteChannel>(kStreamCapacity,
                                         profile.unixSockTransferNs / 2);
}

} // namespace

SyscallResult
UnixSocket::read(Thread &, Bytes &out, std::size_t n)
{
    if (state_ != State::Connected)
        return SyscallResult::failure(lnx::NOTSOCK);
    return rx_->read(out, n);
}

SyscallResult
UnixSocket::write(Thread &, const Bytes &data)
{
    if (state_ != State::Connected)
        return SyscallResult::failure(lnx::NOTSOCK);
    return tx_->write(data);
}

PollState
UnixSocket::poll() const
{
    PollState st;
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::Listening) {
        st.readable = !pending_.empty();
    } else if (state_ == State::Connected) {
        st.readable = rx_->readable();
        st.writable = tx_->writable();
    }
    return st;
}

void
UnixSocket::closed()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (rx_)
        rx_->shutdown();
    if (tx_)
        tx_->shutdown();
    cv_.notify_all();
}

SyscallResult
UnixSocket::listen(int backlog)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::Connected)
        return SyscallResult::failure(lnx::INVAL);
    state_ = State::Listening;
    backlog_ = backlog > 0 ? backlog : 1;
    return SyscallResult::success();
}

SyscallResult
UnixSocket::accept(UnixSocketPtr &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (state_ != State::Listening)
        return SyscallResult::failure(lnx::INVAL);
    while (pending_.empty())
        cv_.wait(lock);
    out = pending_.front();
    pending_.pop_front();
    return SyscallResult::success();
}

std::pair<UnixSocketPtr, UnixSocketPtr>
UnixSocket::makePair(const hw::DeviceProfile &profile)
{
    auto a = std::make_shared<UnixSocket>(profile);
    auto b = std::make_shared<UnixSocket>(profile);
    auto ab = makeStream(profile);
    auto ba = makeStream(profile);
    a->state_ = State::Connected;
    b->state_ = State::Connected;
    a->tx_ = ab;
    b->rx_ = ab;
    b->tx_ = ba;
    a->rx_ = ba;
    return {a, b};
}

SyscallResult
UnixSocket::connect(const UnixSocketPtr &client,
                    const UnixSocketPtr &listener)
{
    if (!listener)
        return SyscallResult::failure(lnx::CONNREFUSED);
    std::scoped_lock lock(client->mu_, listener->mu_);
    if (listener->state_ != State::Listening)
        return SyscallResult::failure(lnx::CONNREFUSED);
    if (client->state_ != State::Unbound)
        return SyscallResult::failure(lnx::ALREADY);
    if (static_cast<int>(listener->pending_.size()) >= listener->backlog_)
        return SyscallResult::failure(lnx::AGAIN);

    auto server = std::make_shared<UnixSocket>(client->profile_);
    auto c2s = makeStream(client->profile_);
    auto s2c = makeStream(client->profile_);
    client->state_ = State::Connected;
    client->tx_ = c2s;
    client->rx_ = s2c;
    server->state_ = State::Connected;
    server->rx_ = c2s;
    server->tx_ = s2c;
    listener->pending_.push_back(server);
    listener->cv_.notify_all();
    return SyscallResult::success();
}

SyscallResult
UnixSocketRegistry::bind(const std::string &path, UnixSocketPtr sock)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = bound_.try_emplace(path, std::move(sock));
    (void)it;
    if (!inserted)
        return SyscallResult::failure(lnx::ADDRINUSE);
    return SyscallResult::success();
}

UnixSocketPtr
UnixSocketRegistry::find(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bound_.find(path);
    return it == bound_.end() ? nullptr : it->second;
}

void
UnixSocketRegistry::unbind(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    bound_.erase(path);
}

} // namespace cider::kernel
