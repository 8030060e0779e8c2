/**
 * @file
 * Per-syscall trap statistics and the lock-free trap trace ring.
 *
 * Every Kernel owns one TrapStats. The trap path records, per dispatch
 * table and per syscall number: invocation counts, error counts, and a
 * log2 histogram of virtual-ns latencies measured from the calling
 * thread's CostClock. A fixed-size lock-free ring buffer keeps the
 * most recent trap records (including persona switches) for
 * flight-recorder style debugging.
 *
 * Recording costs *host* cycles only — it never calls charge() — so
 * installing the subsystem does not perturb the simulated virtual-time
 * results the Figure 5 reproductions depend on.
 *
 * The accumulated state is queryable through Kernel::trapStats() and
 * readable as text from the /proc/cider/trapstats device node.
 */

#ifndef CIDER_KERNEL_TRAP_STATS_H
#define CIDER_KERNEL_TRAP_STATS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/types.h"

namespace cider::kernel {

class SyscallTable;
class Thread;
struct TrapContext;

/**
 * Counters for one syscall in one dispatch table. All fields are
 * relaxed atomics: service threads trap concurrently with the main
 * simulation thread and per-counter exactness beats a lock on the
 * hot path.
 */
struct SyscallStat
{
    /** Log2 latency buckets: bucket i counts traps with virtual-ns
     *  latency in [2^i, 2^(i+1)); the last bucket absorbs the tail. */
    static constexpr int kBuckets = 24;

    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> totalNs{0};
    std::atomic<std::uint64_t> minNs{~std::uint64_t{0}};
    std::atomic<std::uint64_t> maxNs{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> hist{};

    /** Bucket index for a latency value. */
    static int bucketOf(std::uint64_t ns);

    /** Record one completed invocation. */
    void record(std::uint64_t latency_ns, bool ok);
};

/** One record in the trap trace ring. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        Trap,          ///< a completed kernel trap
        /** set_persona changed a thread's persona: a set_persona trap
         *  (one record, with its class, nr and latency) or a direct
         *  PersonaManager::setPersona call (no trap: nr 0, latency 0). */
        PersonaSwitch,
    };

    Kind kind = Kind::Trap;
    TrapClass cls = TrapClass::LinuxSyscall;
    Persona persona = Persona::Android; ///< persona at trap entry
    Persona toPersona = Persona::Android; ///< target (switches only)
    int nr = 0;
    Tid tid = 0;
    std::int64_t value = 0;
    int err = 0;
    std::uint64_t latencyNs = 0;
    std::uint64_t timeNs = 0; ///< calling thread's virtual time
    std::uint64_t seq = 0;    ///< global record sequence number
};

/**
 * Fixed-size lock-free ring of recent trap records, safe for
 * concurrent writers (SMP host threads trap in parallel).
 *
 * The original single-kernel-thread design took a global ticket and
 * wrote `ring_[slot & mask]` non-atomically — two host threads
 * lapping each other could interleave field stores and tear a record.
 * Each slot now carries a seqlock-style claim word: a writer (or the
 * snapshot reader) CAS-claims the slot (even -> odd), touches the
 * record only while holding the claim, and releases (back to even).
 * Contenders never wait: a writer that loses the claim drops its
 * record and bumps dropped() — flight-recorder semantics, wait-free
 * on the trap path, and no torn entry can ever be observed.
 */
class TrapTracer
{
  public:
    explicit TrapTracer(std::size_t capacity = 256);

    /** Append one record (wait-free; may drop under slot contention). */
    void record(TraceRecord rec);

    /** Oldest-to-newest copy of the current ring contents. Slots a
     *  writer holds claimed at read time are skipped, never torn. */
    std::vector<TraceRecord> snapshot() const;

    /** Total records ever written (>= capacity means wrapped). */
    std::uint64_t recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /** Records dropped because their slot was claimed by a peer. */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return cap_; }

    void reset();

  private:
    struct Slot
    {
        /** Claim word: even = stable, odd = claimed (being written or
         *  snapshotted). rec is only touched while holding the claim. */
        std::atomic<std::uint64_t> seq{0};
        TraceRecord rec;
    };

    std::unique_ptr<Slot[]> slots_;
    std::size_t cap_;
    std::size_t mask_;
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/**
 * The per-kernel trap observability subsystem: per-table per-syscall
 * counters (stored in the dispatch-table entries themselves, so the
 * hot path is one pointer deref), global rejection counters, the
 * persona-switch count, and the trace ring.
 */
class TrapStats
{
  public:
    TrapStats();

    /** Register a dispatch table for enumeration in dumps/queries.
     *  Tables attach once; re-attaching is a no-op. */
    void attachTable(const SyscallTable &tbl);

    const std::vector<const SyscallTable *> &tables() const
    {
        return tables_;
    }

    /// @{ Hot-path recording (called from Kernel::trap()).
    void recordTrap(const TrapContext &ctx, const SyscallResult &r,
                    std::uint64_t latency_ns);
    /** A trap whose handler never returned (exit/execve). */
    void recordNoReturn(const TrapContext &ctx, std::uint64_t latency_ns);
    /** A persona switch made outside a trap; recordTrap() traces and
     *  counts a set_persona trap's switch itself. */
    void recordPersonaSwitch(Thread &t, Persona from, Persona to);
    /// @}

    /// @{ Queries (tests and benchmarks).
    /** Counters for @p nr in the table named @p table (null if the
     *  table or the syscall is unknown). */
    const SyscallStat *stat(const std::string &table, int nr) const;
    std::uint64_t calls(const std::string &table, int nr) const;
    std::uint64_t errors(const std::string &table, int nr) const;
    std::uint64_t totalNs(const std::string &table, int nr) const;

    /** Sum of invocation counts across one table / all tables. */
    std::uint64_t tableCalls(const std::string &table) const;
    std::uint64_t totalCalls() const;

    /** Every persona switch, by trap or direct call: the kernel's one
     *  switch counter (PersonaManager::personaSwitches() reads it). */
    std::uint64_t personaSwitches() const
    {
        return personaSwitches_.load(std::memory_order_relaxed);
    }
    /** Traps rejected before a table was selected (wrong persona). */
    std::uint64_t rejectedTraps() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }
    /** Traps that resolved a table but found no handler for the nr. */
    std::uint64_t unknownSyscalls() const
    {
        return unknownNr_.load(std::memory_order_relaxed);
    }
    /** Traps whose handler asked for a missing/mistyped argument
     *  (BadSyscallArg caught at the trap boundary, failed EINVAL). */
    std::uint64_t badArgTraps() const
    {
        return badArgTraps_.load(std::memory_order_relaxed);
    }
    /** Processes SIGKILLed by the memory-pressure kill path. */
    std::uint64_t oomKills() const
    {
        return oomKills_.load(std::memory_order_relaxed);
    }
    void recordBadArg()
    {
        badArgTraps_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordOomKill()
    {
        oomKills_.fetch_add(1, std::memory_order_relaxed);
    }
    /// @}

    TrapTracer &tracer() { return tracer_; }
    const TrapTracer &tracer() const { return tracer_; }

    /** The /proc/cider/trapstats text: per-table per-syscall counts,
     *  latency histograms, and the tail of the trace ring. */
    std::string dump() const;

    /** Zero all counters and the trace ring (benchmark warm-up). */
    void reset();

  private:
    std::vector<const SyscallTable *> tables_;
    TrapTracer tracer_;
    std::atomic<std::uint64_t> personaSwitches_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> unknownNr_{0};
    std::atomic<std::uint64_t> noReturnTraps_{0};
    std::atomic<std::uint64_t> badArgTraps_{0};
    std::atomic<std::uint64_t> oomKills_{0};
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_TRAP_STATS_H
