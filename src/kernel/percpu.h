/**
 * @file
 * The per-CPU layer: simulated CPU slots and the SMP executor pool.
 *
 * Until this layer existed, every guest thread was serialized through
 * one implicit kernel context — the calling host thread — so the
 * simulation could never exceed one host core. The per-CPU structure
 * decomposes that single serialization point the way a real SMP
 * kernel does:
 *
 *  - PerCpu: an array of CpuSlot records sized from the device
 *    profile's core count (the simulated machine's CPUs, not the
 *    host's). Each slot holds a local virtual-time epoch and executor
 *    counters. A host thread *binds* to a slot with CpuScope;
 *    percpu-aware subsystems (the zalloc magazine layer, the trap
 *    path's epoch merge) key off PerCpu::currentCpu().
 *
 *  - ExecutorPool: runs a batch of guest jobs on N host threads over
 *    sharded per-CPU run queues with work stealing. *Virtual* CPU
 *    placement is deterministic — job k lands on simulated CPU
 *    (k mod ncpus) at submit time, and its virtual-time cost is
 *    charged to that CPU's epoch no matter which host thread executes
 *    it. Work stealing moves only host execution, never virtual
 *    attribution, so the pool's merged virtual time is a pure
 *    function of the submitted work.
 *
 * Epoch-merge rules (DESIGN.md §11): each simulated CPU's epoch
 * advances by the sum of the virtual nanoseconds of the jobs assigned
 * to it (commutative — any execution order yields the same sum), and
 * the machine's merged virtual time at a barrier is the max over CPU
 * epochs (also commutative). Both folds are order-insensitive, so a
 * run on 1 host thread and a run on 8 report bit-identical virtual
 * time. At trap boundaries a running guest additionally max-merges
 * its thread clock into its CPU's trap epoch (TrapStats::recordTrap,
 * in the trapping host thread's own shard), keeping /proc/cider/percpu
 * a monotone lower bound of the final merged time while the batch is
 * running.
 *
 * When SchedRail is armed, the pool collapses onto the rail's
 * cooperative schedule: jobs run sequentially in submit order on the
 * calling host thread, so every yield point inside them remains a
 * rail decision and Replay/Explore traces are unchanged by the pool's
 * existence.
 */

#ifndef CIDER_KERNEL_PERCPU_H
#define CIDER_KERNEL_PERCPU_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kernel/types.h"

namespace cider::kernel {

class TrapStats;

/** Hard ceiling on simulated CPUs (magazine arrays are sized by it). */
inline constexpr unsigned kMaxCpus = 64;

/** One simulated CPU's private state. */
struct CpuSlot
{
    std::uint32_t id = 0;
    /** Virtual-time epoch in ns from finished batches (see
     *  epoch-merge rules; trap boundaries merge in TrapStats). */
    std::atomic<std::uint64_t> epochNs{0};
    /** Jobs this virtual CPU was assigned / that were stolen away. */
    std::atomic<std::uint64_t> jobsRun{0};
    std::atomic<std::uint64_t> jobsStolen{0};

    /** Lock-free max-merge of @p ns into epochNs. */
    void
    mergeEpoch(std::uint64_t ns)
    {
        std::uint64_t seen = epochNs.load(std::memory_order_relaxed);
        while (ns > seen &&
               !epochNs.compare_exchange_weak(seen, ns,
                                              std::memory_order_relaxed))
            ;
    }
};

/**
 * The simulated machine's CPU array. One per Kernel, sized from the
 * device profile core count (clamped to [1, kMaxCpus]).
 */
class PerCpu
{
  public:
    /** @p traps, when given, holds the trap-boundary merges into these
     *  CPUs (the owning kernel's TrapStats). */
    explicit PerCpu(unsigned ncpus, const TrapStats *traps = nullptr);

    unsigned count() const { return static_cast<unsigned>(slots_.size()); }

    CpuSlot &slot(unsigned cpu) { return *slots_[cpu]; }
    const CpuSlot &slot(unsigned cpu) const { return *slots_[cpu]; }

    /** Slot the calling host thread is bound to (null when unbound). */
    static CpuSlot *currentSlot();

    /** Bound simulated CPU id of the calling host thread, or -1. */
    static int currentCpu();

    /** Max over CPU epochs, batch and trap-boundary merges alike —
     *  the machine's merged virtual time. */
    std::uint64_t mergedEpochNs() const;

    /** The /proc/cider/percpu text. */
    std::string dump() const;

  private:
    /** Epoch of @p slot: its batch epoch max its trap epoch. */
    std::uint64_t epochOf(const CpuSlot &slot) const;

    // Slots are stable-address (unique_ptr) so bound host threads and
    // magazine caches can hold CpuSlot* across vector growth — not
    // that it grows, but the invariant costs nothing to keep.
    std::vector<std::unique_ptr<CpuSlot>> slots_;
    const TrapStats *traps_;
};

/**
 * RAII binding of the calling host thread to a simulated CPU slot.
 * Nests; the innermost binding wins (matching CostScope/ThreadScope).
 */
class CpuScope
{
  public:
    CpuScope(PerCpu &cpus, unsigned cpu);
    ~CpuScope();

    CpuScope(const CpuScope &) = delete;
    CpuScope &operator=(const CpuScope &) = delete;

  private:
    CpuSlot *prev_;
};

/** Merged result of one ExecutorPool batch. */
struct SmpEpoch
{
    /** Max over per-CPU epochs: the batch's virtual elapsed time. */
    std::uint64_t mergedNs = 0;
    /** Per-simulated-CPU virtual ns (sum over that CPU's jobs). */
    std::vector<std::uint64_t> perCpuNs;
    std::uint64_t jobs = 0;
    /** Jobs a host worker took from a CPU that another worker of the
     *  batch owns (host-side only; never affects virtual time). */
    std::uint64_t steals = 0;
};

/**
 * Runs guest jobs on N host threads over sharded per-CPU run queues
 * with work stealing. See the file comment for the determinism
 * contract. A pool is a batch engine, not a daemon: submit jobs, call
 * runAll(), read the epoch; reuse freely.
 *
 * Worker host threads are *long-lived*: they are spawned lazily on
 * the first multi-threaded runAll() and then parked on a condition
 * variable between batches, so repeated episodes pay a wakeup instead
 * of a thread create/join per call. Single-threaded pools and
 * rail-collapsed batches never spawn workers at all.
 */
class ExecutorPool
{
  public:
    /**
     * @p host_threads caps the host parallelism (clamped to
     * [1, cpus.count()] workers are *not* required; more workers than
     * simulated CPUs just share slots).
     */
    ExecutorPool(PerCpu &cpus, unsigned host_threads);
    ~ExecutorPool();

    ExecutorPool(const ExecutorPool &) = delete;
    ExecutorPool &operator=(const ExecutorPool &) = delete;

    /**
     * Queue a job. Virtual placement is deterministic: the k-th
     * submitted job runs as simulated CPU (k mod ncpus) work. The job
     * returns the virtual nanoseconds it consumed, which the pool
     * charges to that CPU's epoch.
     */
    void submit(std::function<std::uint64_t()> fn,
                const char *label = "job");

    /** Pin a job to simulated CPU @p cpu instead of round-robin. */
    void submitOn(unsigned cpu, std::function<std::uint64_t()> fn,
                  const char *label = "job");

    /**
     * Run every queued job to completion and return the merged epoch.
     * Under an armed SchedRail the jobs run sequentially in submit
     * order on the calling host thread (the rail's cooperative
     * schedule stays in charge). The job list is consumed.
     */
    SmpEpoch runAll();

    unsigned hostThreads() const { return hostThreads_; }

    /**
     * Jobs queued and not yet consumed by runAll. Only meaningful
     * between batches (the submit/runAll caller's thread); admission
     * controllers read it as a backpressure probe before submitting
     * more work.
     */
    std::uint64_t queuedJobs() const { return queued_; }

  private:
    struct Job
    {
        std::function<std::uint64_t()> fn;
        const char *label;
        std::uint32_t vcpu;
        /** Global submit sequence — the rail-collapse drain order. */
        std::uint64_t seq;
    };

    /**
     * Pop a job for worker @p worker of the @p workers draining the
     * batch, from another shard when its own is dry. The job counts
     * as stolen only when another of those workers owns its CPU (CPU
     * c is worker c's primary, so it has an owner when c < @p
     * workers). Returns false when every shard is empty.
     */
    bool popJob(unsigned worker, unsigned workers, Job *out,
                bool *stolen);
    void runJob(const Job &job, bool stolen,
                std::vector<std::atomic<std::uint64_t>> &percpu_ns,
                std::atomic<std::uint64_t> &steals);

    /** Spawn the persistent workers (idempotent). */
    void startWorkers();
    void workerLoop(unsigned w);

    PerCpu &cpus_;
    unsigned hostThreads_;
    std::uint64_t submitSeq_ = 0;

    /// @{ Persistent worker pool: parked between batches.
    std::vector<std::thread> workers_;
    std::mutex poolMu_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::uint64_t batchSeq_ = 0;
    unsigned doneCount_ = 0;
    bool shutdown_ = false;
    std::vector<std::atomic<std::uint64_t>> *batchPercpu_ = nullptr;
    std::atomic<std::uint64_t> *batchSteals_ = nullptr;
    /// @}

    /** One run-queue shard per simulated CPU. */
    struct Shard
    {
        std::mutex mu;
        std::vector<Job> jobs;
        std::size_t head = 0; ///< FIFO pop index
    };
    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t queued_ = 0;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_PERCPU_H
