/**
 * @file
 * Per-process file descriptor table.
 */

#ifndef CIDER_KERNEL_FD_TABLE_H
#define CIDER_KERNEL_FD_TABLE_H

#include <memory>
#include <mutex>
#include <vector>

#include "kernel/file.h"
#include "kernel/types.h"

namespace cider::kernel {

/**
 * Descriptor table. Entries are shared FileDescription objects so
 * dup() and fork() share offsets and flags, as on Linux.
 *
 * The threads of one process (an iOS app's main thread and its event
 * pump) open and close descriptors at once, so one mutex guards the
 * slots and every public operation holds it. A description the table
 * drops is released after the lock is let go: the last reference
 * closes its file object, which may wake another thread.
 */
class FdTable
{
  public:
    explicit FdTable(int max_fds = 1024) : maxFds_(max_fds) {}

    FdTable(const FdTable &) = delete;
    FdTable &operator=(const FdTable &) = delete;

    /** Install @p file at the lowest free slot; -EMFILE when full.
     *  @p cloexec marks the new description close-on-exec. */
    SyscallResult install(std::shared_ptr<OpenFile> file,
                          bool cloexec = false);

    /** Install an existing description (used by dup). */
    SyscallResult installDescription(std::shared_ptr<FileDescription> d);

    /** Look up a descriptor; null when closed or out of range. */
    std::shared_ptr<FileDescription> get(Fd fd) const;

    SyscallResult dup(Fd fd);
    /** dup2(2): close @p new_fd if open, land the dup there. */
    SyscallResult dup2(Fd fd, Fd new_fd);
    SyscallResult close(Fd fd);

    /** fork(): fill this (a new child's, empty) table with @p parent's
     *  descriptors; the descriptions are shared. */
    void forkFrom(const FdTable &parent);

    /** Close everything (process exit) and drop CLOEXEC fds (exec). */
    void closeAll();
    void closeCloexec();

    /** Number of live descriptors. */
    int openCount() const;

  private:
    using Slots = std::vector<std::shared_ptr<FileDescription>>;

    /// @{ get() and the lowest-free-slot install; the caller holds mu_.
    std::shared_ptr<FileDescription> getLocked(Fd fd) const;
    SyscallResult installLocked(std::shared_ptr<FileDescription> d);
    /// @}
    /** Drop a description the table no longer holds; the last
     *  reference closes the file object. Call without mu_. */
    static void release(std::shared_ptr<FileDescription> d);

    const int maxFds_;
    mutable std::mutex mu_;
    Slots slots_;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_FD_TABLE_H
