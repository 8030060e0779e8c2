/**
 * @file
 * Anonymous pipes for the simulated domestic kernel, and the bounded
 * byte channel behind both pipes and AF_UNIX streams.
 */

#ifndef CIDER_KERNEL_PIPE_H
#define CIDER_KERNEL_PIPE_H

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "kernel/file.h"

namespace cider::hw {
struct DeviceProfile;
} // namespace cider::hw

namespace cider::kernel {

/**
 * A bounded byte queue with one reader side and one writer side: a
 * pipe, or one direction of a connected AF_UNIX stream. A drained read
 * returns EOF once the writer side is closed; a write fails with EPIPE
 * once the reader side is closed. Every read or write that moves bytes
 * charges the per-transfer cost. Blocking readers/writers park on host
 * condition variables; their virtual clocks do not advance while
 * blocked, which matches how lmbench-style latency is attributed to
 * the running side.
 */
class ByteChannel
{
  public:
    ByteChannel(std::size_t capacity, std::uint64_t transfer_ns)
        : capacity_(capacity), transferNs_(transfer_ns)
    {}

    SyscallResult read(Bytes &out, std::size_t n);
    SyscallResult write(const Bytes &data);

    void closeReader();
    void closeWriter();
    /** Close both sides, waking every blocked reader and writer. */
    void shutdown();

    bool readable() const;
    bool writable() const;

  private:
    const std::size_t capacity_;
    const std::uint64_t transferNs_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::uint8_t> buf_;
    bool readerOpen_ = true;
    bool writerOpen_ = true;
};

/** One end of a pipe, installed in a descriptor table. */
class PipeEnd : public OpenFile
{
  public:
    PipeEnd(std::shared_ptr<ByteChannel> pipe, bool is_read_end)
        : pipe_(std::move(pipe)), readEnd_(is_read_end)
    {}

    std::string kind() const override
    {
        return readEnd_ ? "pipe:r" : "pipe:w";
    }

    SyscallResult read(Thread &t, Bytes &out, std::size_t n) override;
    SyscallResult write(Thread &t, const Bytes &data) override;
    PollState poll() const override;
    void closed() override;

  private:
    std::shared_ptr<ByteChannel> pipe_;
    bool readEnd_;
};

/** Create both ends of a fresh pipe. */
std::pair<std::shared_ptr<PipeEnd>, std::shared_ptr<PipeEnd>>
makePipe(const hw::DeviceProfile &profile);

} // namespace cider::kernel

#endif // CIDER_KERNEL_PIPE_H
