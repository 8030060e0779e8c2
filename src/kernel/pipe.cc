#include "kernel/pipe.h"

#include "base/cost_clock.h"
#include "hw/device_profile.h"

namespace cider::kernel {

namespace {

constexpr std::size_t kPipeCapacity = 64 * 1024;

} // namespace

SyscallResult
ByteChannel::read(Bytes &out, std::size_t n)
{
    std::unique_lock<std::mutex> lock(mu_);
    while (buf_.empty()) {
        if (!writerOpen_)
            return SyscallResult::success(0); // EOF
        cv_.wait(lock);
    }
    charge(transferNs_);
    std::size_t take = std::min(n, buf_.size());
    out.assign(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(take));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(take));
    cv_.notify_all();
    return SyscallResult::success(static_cast<std::int64_t>(take));
}

SyscallResult
ByteChannel::write(const Bytes &data)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (!readerOpen_)
        return SyscallResult::failure(lnx::PIPE);
    while (buf_.size() + data.size() > capacity_) {
        cv_.wait(lock);
        if (!readerOpen_)
            return SyscallResult::failure(lnx::PIPE);
    }
    charge(transferNs_);
    buf_.insert(buf_.end(), data.begin(), data.end());
    cv_.notify_all();
    return SyscallResult::success(static_cast<std::int64_t>(data.size()));
}

void
ByteChannel::closeReader()
{
    std::lock_guard<std::mutex> lock(mu_);
    readerOpen_ = false;
    cv_.notify_all();
}

void
ByteChannel::closeWriter()
{
    std::lock_guard<std::mutex> lock(mu_);
    writerOpen_ = false;
    cv_.notify_all();
}

void
ByteChannel::shutdown()
{
    std::lock_guard<std::mutex> lock(mu_);
    readerOpen_ = false;
    writerOpen_ = false;
    cv_.notify_all();
}

bool
ByteChannel::readable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !buf_.empty() || !writerOpen_;
}

bool
ByteChannel::writable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return readerOpen_ && buf_.size() < capacity_;
}

SyscallResult
PipeEnd::read(Thread &, Bytes &out, std::size_t n)
{
    if (!readEnd_)
        return SyscallResult::failure(lnx::BADF);
    return pipe_->read(out, n);
}

SyscallResult
PipeEnd::write(Thread &, const Bytes &data)
{
    if (readEnd_)
        return SyscallResult::failure(lnx::BADF);
    return pipe_->write(data);
}

PollState
PipeEnd::poll() const
{
    PollState st;
    if (readEnd_)
        st.readable = pipe_->readable();
    else
        st.writable = pipe_->writable();
    return st;
}

void
PipeEnd::closed()
{
    if (readEnd_)
        pipe_->closeReader();
    else
        pipe_->closeWriter();
}

std::pair<std::shared_ptr<PipeEnd>, std::shared_ptr<PipeEnd>>
makePipe(const hw::DeviceProfile &profile)
{
    auto pipe = std::make_shared<ByteChannel>(kPipeCapacity,
                                              profile.pipeTransferNs / 2);
    return {std::make_shared<PipeEnd>(pipe, true),
            std::make_shared<PipeEnd>(pipe, false)};
}

} // namespace cider::kernel
