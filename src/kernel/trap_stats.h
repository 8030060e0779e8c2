/**
 * @file
 * Per-syscall trap statistics and the trap trace rings.
 *
 * Every Kernel owns one TrapStats. The trap path records, per dispatch
 * table and per syscall number: invocation counts, error counts, and a
 * log2 histogram of virtual-ns latencies measured from the calling
 * thread's CostClock. Fixed-size rings keep the most recent trap
 * records (including persona switches) for flight-recorder style
 * debugging.
 *
 * Each host thread that traps into a kernel writes only its own
 * shard of that kernel's bookkeeping, with relaxed loads and stores
 * and no locked read-modify-write; readers sum the shards. DESIGN.md
 * §11 gives the memory-order argument.
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

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/types.h"

namespace cider::kernel {

class SyscallTable;
class Thread;
struct TrapContext;
struct TrapShard;

/** Counters for one syscall in one dispatch table, summed over every
 *  host thread's shard (the snapshot TrapStats::stat() returns). */
struct SyscallStat
{
    /** Log2 latency buckets: bucket i counts traps with virtual-ns
     *  latency in [2^i, 2^(i+1)); the last bucket absorbs the tail. */
    static constexpr int kBuckets = 24;

    std::uint64_t calls = 0;
    std::uint64_t errors = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t minNs = ~std::uint64_t{0};
    std::uint64_t maxNs = 0;
    std::array<std::uint64_t, kBuckets> hist{};

    /** Bucket index for a latency value (0 and 1 share bucket 0). */
    static int
    bucketOf(std::uint64_t ns)
    {
        return std::min(static_cast<int>(std::bit_width(ns | 1)) - 1,
                        kBuckets - 1);
    }
};

/** One record in a trap trace ring. */
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
    /** Sequence number in the writing host thread's ring. */
    std::uint64_t seq = 0;
};

/** Trap-boundary totals of one simulated CPU over every shard. */
struct CpuTrapTotals
{
    /** Traps whose host thread was bound to the CPU at trap exit. */
    std::uint64_t merges = 0;
    /** Highest thread clock seen at those trap exits. */
    std::uint64_t epochNs = 0;
};

/**
 * The per-kernel trap observability subsystem: per-table per-syscall
 * counters, the rejection, persona-switch and kill counters, the
 * trace rings, and each simulated CPU's trap-boundary merges.
 *
 * All of it lives in shards, one per host thread that traps into the
 * kernel. A shard is created, or adopted from a host thread that has
 * exited or moved to another kernel, under mu_ on the thread's first
 * trap; the thread alone writes it afterwards. Readers take mu_ and
 * sum (or max) the shards.
 */
class TrapStats
{
  public:
    /** Records each shard's trace ring keeps. */
    static constexpr std::size_t kTraceCapacity = 256;

    TrapStats();
    ~TrapStats();

    TrapStats(const TrapStats &) = delete;
    TrapStats &operator=(const TrapStats &) = delete;

    /** Register a dispatch table for counting, dumps and queries: its
     *  entries, and any set on it later, get a counter slot. Tables
     *  attach once; re-attaching is a no-op. */
    void attachTable(SyscallTable &tbl);

    const std::vector<const SyscallTable *> &tables() const
    {
        return tables_;
    }

    /// @{ Hot-path recording (called from Kernel::trap()).
    /** A completed trap; also the trap-boundary merge into the bound
     *  simulated CPU's epoch (DESIGN.md §11). */
    void recordTrap(const TrapContext &ctx, const SyscallResult &r,
                    std::uint64_t latency_ns);
    /** A trap whose handler never returned (exit/execve). */
    void recordNoReturn(const TrapContext &ctx, std::uint64_t latency_ns);
    /** A persona switch made outside a trap; recordTrap() traces and
     *  counts a set_persona trap's switch itself. */
    void recordPersonaSwitch(Thread &t, Persona from, Persona to);
    void recordBadArg();
    void recordOomKill();
    /// @}

    /// @{ Queries (tests and benchmarks).
    /** Counters for @p nr in the table named @p table, summed over the
     *  shards (all zero if the table or the syscall is unknown). */
    SyscallStat stat(const std::string &table, int nr) const;
    std::uint64_t calls(const std::string &table, int nr) const;
    std::uint64_t errors(const std::string &table, int nr) const;
    std::uint64_t totalNs(const std::string &table, int nr) const;

    /** Sum of invocation counts across one table / all tables. */
    std::uint64_t tableCalls(const std::string &table) const;
    std::uint64_t totalCalls() const;

    /** Every persona switch, by trap or direct call: the kernel's one
     *  switch counter (PersonaManager::personaSwitches() reads it). */
    std::uint64_t personaSwitches() const;
    /** Traps rejected before a table was selected (wrong persona). */
    std::uint64_t rejectedTraps() const;
    /** Traps that resolved a table but found no handler for the nr. */
    std::uint64_t unknownSyscalls() const;
    /** Traps whose handler asked for a missing/mistyped argument
     *  (BadSyscallArg caught at the trap boundary, failed EINVAL). */
    std::uint64_t badArgTraps() const;
    /** Processes SIGKILLed by the memory-pressure kill path. */
    std::uint64_t oomKills() const;

    /** Each shard's ring oldest to newest, shards in creation order. */
    std::vector<TraceRecord> trace() const;
    /** Records ever written, over every shard (a shard that wrote
     *  more than kTraceCapacity has wrapped). */
    std::uint64_t traceRecorded() const;

    /** Trap-boundary merges into simulated CPU @p cpu. */
    CpuTrapTotals cpuTraps(unsigned cpu) const;

    /** Shards created so far (one per concurrently trapping host
     *  thread; an exited thread's shard is reused). */
    std::size_t shardCount() const;
    /// @}

    /** The /proc/cider/trapstats text: per-table per-syscall counts,
     *  latency histograms, and the trace rings. */
    std::string dump() const;

    /** Zero all counters and the trace rings (benchmark warm-up; not
     *  safe against concurrent traps). */
    void reset();

  private:
    friend class SyscallTable;

    /** The calling host thread's shard: one thread_local compare on
     *  the fast path. */
    TrapShard &
    shard()
    {
        if (tCache_.serial == serial_) [[likely]]
            return *tCache_.shard;
        return adoptShard();
    }

    /** Hand back the calling thread's shard of another kernel, then
     *  adopt a free shard of this one or create one. */
    TrapShard &adoptShard();
    /** Count one trap of the entry with counter slot @p slot in the
     *  calling thread's shard @p sh. */
    void countEntry(TrapShard &sh, std::uint32_t slot,
                    std::uint64_t latency_ns, bool ok);
    /** Size @p sh's counter cells to every slot handed out so far
     *  (under mu_). */
    void growCellsLocked(TrapShard &sh);
    /** A counter slot for a new entry of an attached table. */
    std::uint32_t newSlot();

    /** One-entry per-host-thread cache: the shard of the TrapStats
     *  whose serial it holds (serials start at 1 and are never
     *  reused; a zeroed cache matches none). */
    struct ShardCache
    {
        std::uint64_t serial;
        TrapShard *shard;
    };
    static inline thread_local ShardCache tCache_;

    /** Owns the calling host thread's shard (trap_stats.cc). */
    struct ShardHold;
    static thread_local ShardHold tHold_;

    const std::uint64_t serial_;
    std::vector<const SyscallTable *> tables_;

    /** Guards shards_, slots_ and each shard's cell array; readers
     *  hold it while they sum. */
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<TrapShard>> shards_;
    std::uint32_t slots_ = 0;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_TRAP_STATS_H
