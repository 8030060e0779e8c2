#include "kernel/fd_table.h"

#include <utility>

namespace cider::kernel {

SyscallResult
FdTable::install(std::shared_ptr<OpenFile> file, bool cloexec)
{
    auto desc = std::make_shared<FileDescription>();
    desc->file = std::move(file);
    desc->cloexec = cloexec;
    return installDescription(std::move(desc));
}

SyscallResult
FdTable::installDescription(std::shared_ptr<FileDescription> d)
{
    std::lock_guard<std::mutex> lock(mu_);
    return installLocked(std::move(d));
}

SyscallResult
FdTable::installLocked(std::shared_ptr<FileDescription> d)
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i]) {
            slots_[i] = std::move(d);
            return SyscallResult::success(static_cast<std::int64_t>(i));
        }
    }
    if (static_cast<int>(slots_.size()) >= maxFds_)
        return SyscallResult::failure(lnx::MFILE);
    slots_.push_back(std::move(d));
    return SyscallResult::success(static_cast<std::int64_t>(slots_.size()) -
                                  1);
}

void
FdTable::release(std::shared_ptr<FileDescription> d)
{
    if (d && d.use_count() == 1 && d->file)
        d->file->closed();
}

std::shared_ptr<FileDescription>
FdTable::getLocked(Fd fd) const
{
    if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size())
        return nullptr;
    return slots_[static_cast<std::size_t>(fd)];
}

std::shared_ptr<FileDescription>
FdTable::get(Fd fd) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return getLocked(fd);
}

SyscallResult
FdTable::dup(Fd fd)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto desc = getLocked(fd);
    if (!desc)
        return SyscallResult::failure(lnx::BADF);
    return installLocked(std::move(desc));
}

SyscallResult
FdTable::dup2(Fd fd, Fd new_fd)
{
    std::shared_ptr<FileDescription> replaced;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto desc = getLocked(fd);
        if (!desc || new_fd < 0 || new_fd >= maxFds_)
            return SyscallResult::failure(lnx::BADF);
        if (fd == new_fd)
            return SyscallResult::success(new_fd);
        if (static_cast<std::size_t>(new_fd) >= slots_.size())
            slots_.resize(static_cast<std::size_t>(new_fd) + 1);
        replaced = std::exchange(slots_[static_cast<std::size_t>(new_fd)],
                                 std::move(desc));
    }
    // An open new_fd is closed silently.
    release(std::move(replaced));
    return SyscallResult::success(new_fd);
}

SyscallResult
FdTable::close(Fd fd)
{
    std::shared_ptr<FileDescription> desc;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd >= 0 && static_cast<std::size_t>(fd) < slots_.size())
            desc = std::move(slots_[static_cast<std::size_t>(fd)]);
    }
    if (!desc)
        return SyscallResult::failure(lnx::BADF);
    release(std::move(desc));
    return SyscallResult::success();
}

void
FdTable::forkFrom(const FdTable &parent)
{
    std::scoped_lock lock(mu_, parent.mu_);
    slots_ = parent.slots_;
}

void
FdTable::closeAll()
{
    Slots dropped;
    {
        std::lock_guard<std::mutex> lock(mu_);
        dropped.swap(slots_);
    }
    for (auto &slot : dropped)
        release(std::move(slot));
}

void
FdTable::closeCloexec()
{
    Slots dropped;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &slot : slots_)
            if (slot && slot->cloexec)
                dropped.push_back(std::move(slot));
    }
    for (auto &slot : dropped)
        release(std::move(slot));
}

int
FdTable::openCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto &slot : slots_)
        if (slot)
            ++n;
    return n;
}

} // namespace cider::kernel
