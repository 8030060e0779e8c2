#include "kernel/thread.h"

#include "base/logging.h"

namespace cider::kernel {

namespace {

thread_local Thread *t_current = nullptr;

/** Stable per-host-thread identity for the ext() owner check. */
thread_local char t_hostMarker = 0;

} // namespace

Thread *
Thread::current()
{
    return t_current;
}

void
Thread::queueSignal(const SigInfo &info)
{
    std::lock_guard<std::mutex> lock(sigMu_);
    pending_.push_back(info);
    pendingCount_.store(pending_.size(), std::memory_order_relaxed);
}

bool
Thread::takePendingSignal(SigInfo *out)
{
    // Every trap exit asks, and almost always nothing is queued. A
    // relaxed load is enough: a queueSignal that happens-before this
    // trap is seen, one that races it is taken at the next trap
    // boundary, and the deque itself is only read under the lock.
    if (pendingCount_.load(std::memory_order_relaxed) == 0)
        return false;
    std::lock_guard<std::mutex> lock(sigMu_);
    if (pending_.empty())
        return false;
    *out = pending_.front();
    pending_.pop_front();
    pendingCount_.store(pending_.size(), std::memory_order_relaxed);
    return true;
}

std::size_t
Thread::pendingSignalCount() const
{
    return pendingCount_.load(std::memory_order_relaxed);
}

ExtSlots<ThreadSlot> &
Thread::ext()
{
    const void *owner = activeHost_.load(std::memory_order_acquire);
    if (owner != nullptr && owner != &t_hostMarker)
        cider_panic(
            "Thread::ext: cross-host access to thread ", tid_,
            " while another host thread simulates it (single-owner "
            "contract; see thread.h)");
    return ext_;
}

ThreadScope::ThreadScope(Thread &thread)
    : prev_(t_current), cost_(thread.clock())
{
    t_current = &thread;
    thread.activeHost_.store(&t_hostMarker, std::memory_order_release);
}

ThreadScope::~ThreadScope()
{
    // Release the ext() ownership only when leaving the outermost
    // scope for this thread on this host (nested rescoping of the
    // same thread keeps the binding).
    if (prev_ != t_current)
        t_current->activeHost_.store(nullptr, std::memory_order_release);
    t_current = prev_;
}

} // namespace cider::kernel
