#include "kernel/percpu.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "base/logging.h"
#include "kernel/sched_rail.h"
#include "kernel/trap_stats.h"

namespace cider::kernel {

namespace {

thread_local CpuSlot *t_cpuSlot = nullptr;

} // namespace

PerCpu::PerCpu(unsigned ncpus, const TrapStats *traps) : traps_(traps)
{
    unsigned n = std::clamp(ncpus, 1u, kMaxCpus);
    slots_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        auto slot = std::make_unique<CpuSlot>();
        slot->id = i;
        slots_.push_back(std::move(slot));
    }
}

CpuSlot *
PerCpu::currentSlot()
{
    return t_cpuSlot;
}

int
PerCpu::currentCpu()
{
    return t_cpuSlot ? static_cast<int>(t_cpuSlot->id) : -1;
}

std::uint64_t
PerCpu::epochOf(const CpuSlot &slot) const
{
    std::uint64_t batch = slot.epochNs.load(std::memory_order_relaxed);
    return traps_ ? std::max(batch, traps_->cpuTraps(slot.id).epochNs)
                  : batch;
}

std::uint64_t
PerCpu::mergedEpochNs() const
{
    std::uint64_t merged = 0;
    for (const auto &slot : slots_)
        merged = std::max(merged, epochOf(*slot));
    return merged;
}

std::string
PerCpu::dump() const
{
    std::string out = "percpu: " + std::to_string(count()) +
                      " simulated cpus\n";
    char line[160];
    for (const auto &slot : slots_) {
        std::snprintf(
            line, sizeof line,
            "cpu%-2u epoch %llu ns  trap-merges %llu  jobs %llu  "
            "stolen %llu\n",
            slot->id, static_cast<unsigned long long>(epochOf(*slot)),
            static_cast<unsigned long long>(
                traps_ ? traps_->cpuTraps(slot->id).merges : 0),
            static_cast<unsigned long long>(
                slot->jobsRun.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                slot->jobsStolen.load(std::memory_order_relaxed)));
        out += line;
    }
    out += "merged epoch: " + std::to_string(mergedEpochNs()) + " ns\n";
    return out;
}

CpuScope::CpuScope(PerCpu &cpus, unsigned cpu) : prev_(t_cpuSlot)
{
    if (cpu >= cpus.count())
        // invariant-only: binding targets come from in-tree executor
        // code, never from guest input.
        cider_panic("CpuScope: cpu ", cpu, " out of range (",
                    cpus.count(), " slots)");
    t_cpuSlot = &cpus.slot(cpu);
}

CpuScope::~CpuScope()
{
    t_cpuSlot = prev_;
}

ExecutorPool::ExecutorPool(PerCpu &cpus, unsigned host_threads)
    : cpus_(cpus), hostThreads_(std::max(1u, host_threads))
{
    shards_.reserve(cpus_.count());
    for (unsigned i = 0; i < cpus_.count(); ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ExecutorPool::~ExecutorPool()
{
    {
        std::lock_guard<std::mutex> lock(poolMu_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ExecutorPool::startWorkers()
{
    if (!workers_.empty())
        return;
    workers_.reserve(hostThreads_);
    for (unsigned w = 0; w < hostThreads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
ExecutorPool::workerLoop(unsigned w)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(poolMu_);
    for (;;) {
        workCv_.wait(lock, [&] {
            return shutdown_ || batchSeq_ != seen;
        });
        if (shutdown_)
            return;
        seen = batchSeq_;
        std::vector<std::atomic<std::uint64_t>> *percpu = batchPercpu_;
        std::atomic<std::uint64_t> *steals = batchSteals_;
        lock.unlock();
        Job job;
        bool stolen = false;
        while (popJob(w, hostThreads_, &job, &stolen))
            runJob(job, stolen, *percpu, *steals);
        lock.lock();
        if (++doneCount_ == workers_.size())
            doneCv_.notify_all();
    }
}

void
ExecutorPool::submit(std::function<std::uint64_t()> fn,
                     const char *label)
{
    submitOn(static_cast<unsigned>(submitSeq_ % cpus_.count()),
             std::move(fn), label);
}

void
ExecutorPool::submitOn(unsigned cpu, std::function<std::uint64_t()> fn,
                       const char *label)
{
    if (cpu >= cpus_.count())
        // invariant-only: in-tree callers pin within the machine.
        cider_panic("ExecutorPool::submitOn: cpu ", cpu,
                    " out of range (", cpus_.count(), " slots)");
    std::uint64_t seq = submitSeq_++;
    Shard &shard = *shards_[cpu];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.jobs.push_back(Job{std::move(fn), label, cpu, seq});
    ++queued_;
}

bool
ExecutorPool::popJob(unsigned worker, unsigned workers, Job *out,
                     bool *stolen)
{
    unsigned n = cpus_.count();
    unsigned primary = worker % n;
    for (unsigned i = 0; i < n; ++i) {
        unsigned cpu = (primary + i) % n;
        Shard &shard = *shards_[cpu];
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.head < shard.jobs.size()) {
            *out = std::move(shard.jobs[shard.head++]);
            *stolen = i != 0 && cpu < workers;
            return true;
        }
    }
    return false;
}

void
ExecutorPool::runJob(const Job &job, bool stolen,
                     std::vector<std::atomic<std::uint64_t>> &percpu_ns,
                     std::atomic<std::uint64_t> &steals)
{
    CpuScope scope(cpus_, job.vcpu);
    std::uint64_t ns = job.fn ? job.fn() : 0;
    // Deterministic attribution: the job's virtual cost lands on its
    // *virtual* CPU regardless of which host worker ran it. Sums are
    // commutative, so host execution order can never change them.
    percpu_ns[job.vcpu].fetch_add(ns, std::memory_order_relaxed);
    CpuSlot &slot = cpus_.slot(job.vcpu);
    slot.jobsRun.fetch_add(1, std::memory_order_relaxed);
    if (stolen) {
        slot.jobsStolen.fetch_add(1, std::memory_order_relaxed);
        steals.fetch_add(1, std::memory_order_relaxed);
    }
}

SmpEpoch
ExecutorPool::runAll()
{
    unsigned n = cpus_.count();
    std::vector<std::atomic<std::uint64_t>> percpu_ns(n);
    std::atomic<std::uint64_t> steals{0};
    SmpEpoch epoch;
    epoch.jobs = queued_;

    if (SchedRail::global().engaged()) {
        // Collapse onto the rail's cooperative schedule: one job at a
        // time, in global submit order, on the calling host thread.
        // Yield points inside jobs stay rail decisions; no host
        // worker ever competes with the rail for a guest. Each shard
        // is FIFO with ascending seq, so an n-way merge on the heads
        // recovers submit order. No locks: the rail serializes
        // everything and workers are never spawned on this path.
        for (;;) {
            Shard *next = nullptr;
            for (auto &shard_ptr : shards_) {
                Shard &shard = *shard_ptr;
                if (shard.head >= shard.jobs.size())
                    continue;
                if (!next ||
                    shard.jobs[shard.head].seq <
                        next->jobs[next->head].seq)
                    next = &shard;
            }
            if (!next)
                break;
            Job job = std::move(next->jobs[next->head++]);
            bool stolen = false;
            runJob(job, stolen, percpu_ns, steals);
        }
    } else if (hostThreads_ <= 1 || queued_ <= 1) {
        // Nothing to parallelize: drain on the calling thread, no
        // workers (and none spawned for single-threaded pools).
        Job job;
        bool stolen = false;
        while (popJob(0, 1, &job, &stolen))
            runJob(job, stolen, percpu_ns, steals);
    } else {
        // Hand the batch to the persistent workers: publish the
        // batch's accumulators under the lock, bump the sequence, and
        // wait for every worker to report its drain complete. The
        // workers stay parked across episodes — repeated runAll()
        // calls pay a condition-variable wakeup, not thread spawns.
        startWorkers();
        {
            std::lock_guard<std::mutex> lock(poolMu_);
            batchPercpu_ = &percpu_ns;
            batchSteals_ = &steals;
            doneCount_ = 0;
            ++batchSeq_;
        }
        workCv_.notify_all();
        std::unique_lock<std::mutex> lock(poolMu_);
        doneCv_.wait(lock, [&] {
            return doneCount_ == workers_.size();
        });
        batchPercpu_ = nullptr;
        batchSteals_ = nullptr;
    }

    // Batch consumed; reset the shards for reuse.
    for (auto &shard_ptr : shards_) {
        shard_ptr->jobs.clear();
        shard_ptr->head = 0;
    }
    queued_ = 0;

    epoch.perCpuNs.resize(n);
    for (unsigned cpu = 0; cpu < n; ++cpu) {
        std::uint64_t ns =
            percpu_ns[cpu].load(std::memory_order_relaxed);
        epoch.perCpuNs[cpu] = ns;
        epoch.mergedNs = std::max(epoch.mergedNs, ns);
        // Observability: the slot's live epoch becomes at least the
        // batch's per-CPU total (max-merge keeps it a high-water
        // mark across batches).
        cpus_.slot(cpu).mergeEpoch(ns);
    }
    epoch.steals = steals.load(std::memory_order_relaxed);
    return epoch;
}

} // namespace cider::kernel
