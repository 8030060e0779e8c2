/**
 * @file
 * Kernel thread object with per-thread persona state.
 *
 * The persona is tracked *per thread*, inherited on fork/clone, and
 * switchable at runtime via the set_persona syscall — the central
 * kernel mechanism of the paper (sections 4.1 and 4.3). The TLS slots
 * let one thread own distinct thread-local areas for every persona it
 * executes in; the active slot selects where errno and the thread ID
 * live.
 */

#ifndef CIDER_KERNEL_THREAD_H
#define CIDER_KERNEL_THREAD_H

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/cost_clock.h"
#include "kernel/signals.h"
#include "kernel/types.h"

namespace cider::kernel {

class Process;

/**
 * Extension-state map modules use to hang per-object state.
 *
 * The traffic is read-mostly: a few first-use inserts per object and
 * one clear() per exec, against several lookups per diplomatic GL call
 * and one per Mach trap. So the slots live in an immutable table
 * published through one atomic pointer: a lookup is an acquire load
 * and a scan of string_view keys, with no lock, no key string built
 * and no refcount touched. A first-use insert and clear() serialize on
 * a writer mutex, build a new table and publish it with a release
 * store; first callers that race in get() resolve to one shared value.
 * A replaced table stays allocated until the map is destroyed, since a
 * reader may still be scanning it (DESIGN.md section 11). Values are
 * owned apart from the tables, and clear() drops them.
 *
 * The returned values themselves are NOT locked: each value follows
 * its owner's serialization (per-thread state is only touched by the
 * host thread simulating that thread — see Thread::ext(); per-process
 * state is shared and must carry its own synchronisation if mutated
 * concurrently).
 */
class ExtMap
{
  public:
    /** Fetch (default-constructing on first use) typed state. */
    template <typename T>
    T &
    get(std::string_view key)
    {
        void *value = lookup(key);
        if (!value)
            value = insert(key, &makeValue<T>);
        return *static_cast<T *>(value);
    }

    /** Peek without creating. */
    template <typename T>
    T *
    find(std::string_view key) const
    {
        return static_cast<T *>(lookup(key));
    }

    /** Drop every value; the next get() of a key creates it afresh. */
    void clear();

  private:
    struct Slot
    {
        std::string key;
        void *value;
    };
    using Table = std::vector<Slot>;

    template <typename T>
    static std::shared_ptr<void>
    makeValue()
    {
        return std::make_shared<T>();
    }

    void *lookup(std::string_view key) const;
    void *insert(std::string_view key, std::shared_ptr<void> (*make)());

    /** The published table; null when empty. */
    std::atomic<const Table *> table_{nullptr};
    /** Writers only (insert, clear); a lookup never takes it. */
    std::mutex mu_;
    /** Every table ever published, freed only with the map. */
    std::vector<std::unique_ptr<const Table>> tables_;
    /** Owners of the published table's values. */
    std::vector<std::shared_ptr<void>> values_;
};

class Thread
{
  public:
    Thread(Tid tid, Process &proc, Persona persona)
        : tid_(tid), proc_(&proc), persona_(persona)
    {}

    Tid tid() const { return tid_; }
    Process &process() { return *proc_; }
    const Process &process() const { return *proc_; }

    /** Relaxed atomics: a signal sender on another host thread reads
     *  the receiver's persona (delivery translation) while the owner
     *  may be mid-switch in a diplomatic call. */
    Persona persona() const
    {
        return persona_.load(std::memory_order_relaxed);
    }
    void setPersona(Persona p)
    {
        persona_.store(p, std::memory_order_relaxed);
    }

    CostClock &clock() { return clock_; }

    /// @{
    /**
     * Signal delivery. Queue/drain are separately locked so any host
     * thread (a concurrently running sender under SMP) can deliver
     * while the target drains at its own trap boundary. The old
     * pattern — peek front, act, pop — was a two-step race; the
     * single-step take keeps drain atomic.
     */
    void queueSignal(const SigInfo &info);
    /** Pop the oldest pending signal; false when none pending (then
     *  without taking the lock). */
    bool takePendingSignal(SigInfo *out);
    std::size_t pendingSignalCount() const;
    /// @}

    /**
     * Per-thread module extension state (TLS areas, Mach self port).
     *
     * Single-owner contract: while a host thread holds a ThreadScope
     * binding this thread, only that host thread may touch ext().
     * Violations panic (and are pinned by a death test) — per-thread
     * extension values are deliberately unlocked, so a cross-host
     * access would be a silent data race.
     */
    ExtMap &ext();

    /** The thread the calling host thread is currently simulating. */
    static Thread *current();

  private:
    Tid tid_;
    Process *proc_;
    std::atomic<Persona> persona_;
    CostClock clock_;
    mutable std::mutex sigMu_;
    std::deque<SigInfo> pending_;
    /** pending_.size(), written under sigMu_ and read without it, so
     *  a trap exit with nothing queued takes no lock. */
    std::atomic<std::size_t> pendingCount_{0};
    ExtMap ext_;
    /** Host-thread marker of the ThreadScope currently simulating
     *  this thread (null when not being simulated). */
    std::atomic<const void *> activeHost_{nullptr};

    friend class ThreadScope;
};

/**
 * RAII guard: the calling host thread simulates @p thread until the
 * scope ends. Installs the thread's CostClock as the active clock.
 */
class ThreadScope
{
  public:
    explicit ThreadScope(Thread &thread);
    ~ThreadScope();

    ThreadScope(const ThreadScope &) = delete;
    ThreadScope &operator=(const ThreadScope &) = delete;

  private:
    Thread *prev_;
    CostScope cost_;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_THREAD_H
