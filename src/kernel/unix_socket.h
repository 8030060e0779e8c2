/**
 * @file
 * AF_UNIX stream sockets for the simulated domestic kernel.
 *
 * Used both by the lmbench AF_UNIX latency benchmark and by Cider's
 * input bridge: the CiderPress Android app forwards input events over
 * a UNIX socket to the eventpump thread inside each iOS app (paper
 * section 5.2).
 */

#ifndef CIDER_KERNEL_UNIX_SOCKET_H
#define CIDER_KERNEL_UNIX_SOCKET_H

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "kernel/file.h"
#include "kernel/pipe.h"

namespace cider::hw {
struct DeviceProfile;
} // namespace cider::hw

namespace cider::kernel {

class UnixSocket;
using UnixSocketPtr = std::shared_ptr<UnixSocket>;

/** An AF_UNIX stream socket endpoint. */
class UnixSocket : public OpenFile
{
  public:
    enum class State
    {
        Unbound,
        Listening,
        Connected,
    };

    explicit UnixSocket(const hw::DeviceProfile &profile)
        : profile_(profile)
    {}

    std::string kind() const override { return "unix"; }

    SyscallResult read(Thread &t, Bytes &out, std::size_t n) override;
    SyscallResult write(Thread &t, const Bytes &data) override;
    PollState poll() const override;
    void closed() override;

    /** Switch to Listening with the given backlog. */
    SyscallResult listen(int backlog);

    /** Block until a pending connection exists; return the new peer. */
    SyscallResult accept(UnixSocketPtr &out);

    State state() const { return state_; }

    /** Create a pre-connected pair (socketpair(2)). */
    static std::pair<UnixSocketPtr, UnixSocketPtr>
    makePair(const hw::DeviceProfile &profile);

    /** Connect @p client to @p listener, enqueueing the server side. */
    static SyscallResult connect(const UnixSocketPtr &client,
                                 const UnixSocketPtr &listener);

  private:
    const hw::DeviceProfile &profile_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    State state_ = State::Unbound;
    int backlog_ = 0;
    std::deque<UnixSocketPtr> pending_;
    std::shared_ptr<ByteChannel> rx_;
    std::shared_ptr<ByteChannel> tx_;
};

/** Pathname → listening socket registry (the socket namespace). */
class UnixSocketRegistry
{
  public:
    SyscallResult bind(const std::string &path, UnixSocketPtr sock);
    UnixSocketPtr find(const std::string &path) const;
    void unbind(const std::string &path);

  private:
    mutable std::mutex mu_;
    std::map<std::string, UnixSocketPtr> bound_;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_UNIX_SOCKET_H
