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

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>

#include "base/cost_clock.h"
#include "kernel/signals.h"
#include "kernel/types.h"

namespace cider::kernel {

class Process;

/**
 * Per-object module state: one slot per state a module keeps, indexed
 * by the closed enum @p Slot (ProcessSlot, ThreadSlot).
 *
 * A slot is one atomic pointer to a boxed value. A read is an acquire
 * load and an index; the first get() of a slot value-initialises its
 * state and installs it with one compare-exchange, and first callers
 * that race resolve to the winner's value (a loser deletes its own
 * copy, so a state's default constructor must have no side effects).
 * clear() empties every slot (exec) and deletes the values; a
 * reference get() returned before it dangles after it. See DESIGN.md
 * section 11.
 *
 * Each slot holds one type, fixed by the one accessor that reads it;
 * get<T>() does not check it. The values themselves are NOT locked:
 * each follows its owner's serialization (per-thread state is only
 * touched by the host thread simulating that thread — see
 * Thread::ext(); per-process state is shared and must carry its own
 * synchronisation if mutated concurrently).
 */
template <typename Slot>
class ExtSlots
{
  public:
    ExtSlots() = default;
    ExtSlots(const ExtSlots &) = delete;
    ExtSlots &operator=(const ExtSlots &) = delete;
    ~ExtSlots() { clear(); }

    /** The state in @p slot, value-initialised on first use. */
    template <typename T>
    T &
    get(Slot slot)
    {
        std::atomic<Box *> &cell = slots_[static_cast<std::size_t>(slot)];
        Box *box = cell.load(std::memory_order_acquire);
        if (!box) {
            auto *fresh = new Value<T>();
            if (cell.compare_exchange_strong(box, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
                box = fresh;
            else
                delete fresh; // a racing first caller installed first
        }
        return static_cast<Value<T> *>(box)->value;
    }

    /** Drop every value; the next get() of a slot creates it afresh. */
    void
    clear()
    {
        for (std::atomic<Box *> &cell : slots_)
            delete cell.exchange(nullptr, std::memory_order_acq_rel);
    }

  private:
    struct Box
    {
        Box() = default;
        Box(const Box &) = delete;
        Box &operator=(const Box &) = delete;
        virtual ~Box() = default;
    };
    template <typename T>
    struct Value : Box
    {
        T value{};
    };

    std::array<std::atomic<Box *>, static_cast<std::size_t>(Slot::Count)>
        slots_{};
};

/** The per-thread states, one slot each (Thread::ext()). */
enum class ThreadSlot
{
    PersonaTls,  ///< persona::ThreadTls, the per-persona TLS areas
    PersonaMdep, ///< the machine-dependent trap table's TLS base
    Count,
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
     * Per-thread module state (the persona's TLS areas and TLS base).
     *
     * Single-owner contract: while a host thread holds a ThreadScope
     * binding this thread, only that host thread may touch ext().
     * Violations panic (and are pinned by a death test) — per-thread
     * extension values are deliberately unlocked, so a cross-host
     * access would be a silent data race.
     */
    ExtSlots<ThreadSlot> &ext();

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
    ExtSlots<ThreadSlot> ext_;
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
