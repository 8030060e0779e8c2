#include "kernel/trap_stats.h"

#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "base/logging.h"
#include "kernel/kernel.h"
#include "kernel/percpu.h"
#include "kernel/thread.h"
#include "kernel/trap_context.h"

namespace cider::kernel {

namespace {

using Word = std::atomic<std::uint64_t>;

constexpr auto kRelaxed = std::memory_order_relaxed;

/** Single-writer increment: a relaxed load and store, no lock. */
inline void
bump(Word &w, std::uint64_t by = 1)
{
    w.store(w.load(kRelaxed) + by, kRelaxed);
}

/** One entry's counters in one shard (SyscallStat, as atomics). */
struct StatCell
{
    Word calls{0};
    Word errors{0};
    Word totalNs{0};
    Word minNs{~std::uint64_t{0}};
    Word maxNs{0};
    std::array<Word, SyscallStat::kBuckets> hist{};

    void
    record(std::uint64_t ns, bool ok)
    {
        bump(calls);
        if (!ok)
            bump(errors);
        bump(totalNs, ns);
        bump(hist[static_cast<std::size_t>(SyscallStat::bucketOf(ns))]);
        if (ns < minNs.load(kRelaxed))
            minNs.store(ns, kRelaxed);
        if (ns > maxNs.load(kRelaxed))
            maxNs.store(ns, kRelaxed);
    }

    void
    addTo(SyscallStat &s) const
    {
        s.calls += calls.load(kRelaxed);
        s.errors += errors.load(kRelaxed);
        s.totalNs += totalNs.load(kRelaxed);
        s.minNs = std::min(s.minNs, minNs.load(kRelaxed));
        s.maxNs = std::max(s.maxNs, maxNs.load(kRelaxed));
        for (std::size_t b = 0; b < hist.size(); ++b)
            s.hist[b] += hist[b].load(kRelaxed);
    }

    void
    copyFrom(const StatCell &o)
    {
        calls.store(o.calls.load(kRelaxed), kRelaxed);
        errors.store(o.errors.load(kRelaxed), kRelaxed);
        totalNs.store(o.totalNs.load(kRelaxed), kRelaxed);
        minNs.store(o.minNs.load(kRelaxed), kRelaxed);
        maxNs.store(o.maxNs.load(kRelaxed), kRelaxed);
        for (std::size_t b = 0; b < hist.size(); ++b)
            hist[b].store(o.hist[b].load(kRelaxed), kRelaxed);
    }
};

/**
 * One trace record in a single-writer seqlock slot. seq is 2i+1 while
 * the owner writes record i into the slot and 2i+2 once it is whole;
 * the payload words are atomics so a reader racing the owner reads
 * them without a data race and discards what the seq check rejects.
 */
struct TraceSlot
{
    Word seq{0};
    Word head{0}; ///< kind, cls, persona, toPersona (a byte each), nr
    Word ids{0};  ///< tid, err
    Word value{0};
    Word latencyNs{0};
    Word timeNs{0};
};

constexpr std::uint64_t kTraceMask = TrapStats::kTraceCapacity - 1;
static_assert((TrapStats::kTraceCapacity & kTraceMask) == 0,
              "trace capacity must be a power of two");

std::uint64_t
low32(int v)
{
    return static_cast<std::uint32_t>(v);
}

/** The per-shard counters that are not per entry. */
enum class Counter : std::size_t
{
    PersonaSwitches,
    Rejected,
    UnknownNr,
    NoReturn,
    BadArg,
    OomKills,
    Count,
};

} // namespace

/**
 * One host thread's part of a TrapStats. Only the owning host thread
 * writes it; readers load it under TrapStats::mu_. The cell array is
 * replaced (grown) only under mu_.
 */
struct TrapShard
{
    /** Held by a host thread; cleared (release) when it hands the
     *  shard back, read (acquire) by the adopter under mu_. */
    std::atomic<bool> owned{false};

    std::unique_ptr<StatCell[]> cells;
    std::uint32_t ncells = 0;

    std::array<Word, static_cast<std::size_t>(Counter::Count)> counters{};

    /** Records this shard ever wrote (its ring's head). */
    Word recorded{0};
    std::array<TraceSlot, TrapStats::kTraceCapacity> ring{};

    struct CpuMerge
    {
        Word merges{0};
        Word epochNs{0};
    };
    std::array<CpuMerge, kMaxCpus> cpu{};

    Word &
    counter(Counter c)
    {
        return counters[static_cast<std::size_t>(c)];
    }

    std::uint64_t
    counter(Counter c) const
    {
        return counters[static_cast<std::size_t>(c)].load(kRelaxed);
    }

    /** Write one trace record into the next ring slot, field by
     *  field (the owner's side of the seqlock). */
    void
    trace(TraceRecord::Kind kind, TrapClass cls, Persona from,
          Persona to, int nr, Tid tid, std::int64_t value, int err,
          std::uint64_t latency_ns, std::uint64_t time_ns)
    {
        std::uint64_t i = recorded.load(kRelaxed);
        TraceSlot &s = ring[i & kTraceMask];
        s.seq.store(2 * i + 1, kRelaxed);
        std::atomic_thread_fence(std::memory_order_release);
        s.head.store(static_cast<std::uint64_t>(kind) |
                         static_cast<std::uint64_t>(cls) << 8 |
                         static_cast<std::uint64_t>(from) << 16 |
                         static_cast<std::uint64_t>(to) << 24 |
                         low32(nr) << 32,
                     kRelaxed);
        s.ids.store(low32(tid) | low32(err) << 32, kRelaxed);
        s.value.store(static_cast<std::uint64_t>(value), kRelaxed);
        s.latencyNs.store(latency_ns, kRelaxed);
        s.timeNs.store(time_ns, kRelaxed);
        s.seq.store(2 * i + 2, std::memory_order_release);
        recorded.store(i + 1, std::memory_order_release);
    }

    /** Append the ring's whole records, oldest to newest (the
     *  reader's side of the seqlock). */
    void
    snapshot(std::vector<TraceRecord> &out) const
    {
        std::uint64_t head = recorded.load(std::memory_order_acquire);
        std::uint64_t count = std::min<std::uint64_t>(
            head, TrapStats::kTraceCapacity);
        for (std::uint64_t i = head - count; i < head; ++i) {
            const TraceSlot &s = ring[i & kTraceMask];
            std::uint64_t before = s.seq.load(std::memory_order_acquire);
            std::uint64_t h = s.head.load(kRelaxed);
            std::uint64_t ids = s.ids.load(kRelaxed);
            TraceRecord r;
            r.value = static_cast<std::int64_t>(s.value.load(kRelaxed));
            r.latencyNs = s.latencyNs.load(kRelaxed);
            r.timeNs = s.timeNs.load(kRelaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            // The owner lapped this slot after the head load: record
            // i is gone, and a newer one is being written over it.
            if (before != 2 * i + 2 || s.seq.load(kRelaxed) != before)
                continue;
            r.kind = static_cast<TraceRecord::Kind>(h & 0xff);
            r.cls = static_cast<TrapClass>(h >> 8 & 0xff);
            r.persona = static_cast<Persona>(h >> 16 & 0xff);
            r.toPersona = static_cast<Persona>(h >> 24 & 0xff);
            r.nr = static_cast<int>(static_cast<std::uint32_t>(h >> 32));
            r.tid = static_cast<Tid>(static_cast<std::uint32_t>(ids));
            r.err = static_cast<int>(static_cast<std::uint32_t>(ids >> 32));
            r.seq = i;
            out.push_back(r);
        }
    }

    void
    reset()
    {
        for (std::uint32_t i = 0; i < ncells; ++i)
            cells[i].copyFrom(StatCell{});
        for (Word &c : counters)
            c.store(0, kRelaxed);
        recorded.store(0, kRelaxed);
        for (TraceSlot &s : ring)
            s.seq.store(0, kRelaxed);
        for (CpuMerge &c : cpu) {
            c.merges.store(0, kRelaxed);
            c.epochNs.store(0, kRelaxed);
        }
    }
};

namespace {

std::atomic<std::uint64_t> g_nextSerial{1};

} // namespace

/**
 * Keeps the calling host thread's shard alive (shared ownership: it
 * may outlive its kernel) and hands it back, counts kept, when the
 * thread exits or moves to another kernel.
 */
struct TrapStats::ShardHold
{
    std::shared_ptr<TrapShard> shard;

    ShardHold() = default;
    ShardHold(const ShardHold &) = delete;
    ShardHold &operator=(const ShardHold &) = delete;
    ~ShardHold() { release(); }

    void
    release()
    {
        tCache_ = ShardCache{};
        if (!shard)
            return;
        shard->owned.store(false, std::memory_order_release);
        shard.reset();
    }
};

thread_local TrapStats::ShardHold TrapStats::tHold_;

TrapStats::TrapStats()
    : serial_(g_nextSerial.fetch_add(1, kRelaxed))
{
}

TrapStats::~TrapStats() = default;

TrapShard &
TrapStats::adoptShard()
{
    tHold_.release();
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<TrapShard> pick;
    for (const std::shared_ptr<TrapShard> &s : shards_) {
        if (!s->owned.load(std::memory_order_acquire)) {
            pick = s;
            break;
        }
    }
    if (!pick) {
        pick = std::make_shared<TrapShard>();
        shards_.push_back(pick);
    }
    pick->owned.store(true, kRelaxed);
    growCellsLocked(*pick);
    TrapShard &sh = *pick;
    tHold_.shard = std::move(pick);
    tCache_ = ShardCache{serial_, &sh};
    return sh;
}

void
TrapStats::countEntry(TrapShard &sh, std::uint32_t slot,
                      std::uint64_t latency_ns, bool ok)
{
    if (slot == SyscallTable::kNoStatSlot)
        return;
    if (slot >= sh.ncells) [[unlikely]] {
        // Set on an attached table after this shard was sized (the
        // I/O Kit traps): only the owner replaces its cell array.
        std::lock_guard<std::mutex> lock(mu_);
        growCellsLocked(sh);
    }
    sh.cells[slot].record(latency_ns, ok);
}

void
TrapStats::growCellsLocked(TrapShard &sh)
{
    if (sh.ncells >= slots_)
        return;
    auto cells = std::make_unique<StatCell[]>(slots_);
    for (std::uint32_t i = 0; i < sh.ncells; ++i)
        cells[i].copyFrom(sh.cells[i]);
    sh.cells = std::move(cells);
    sh.ncells = slots_;
}

std::uint32_t
TrapStats::newSlot()
{
    std::lock_guard<std::mutex> lock(mu_);
    return slots_++;
}

void
TrapStats::attachTable(SyscallTable &tbl)
{
    if (tbl.stats_ == this)
        return;
    if (tbl.stats_)
        // invariant-only: each table belongs to one kernel.
        cider_panic("syscall table ", tbl.name(),
                    " is attached to another kernel");
    std::lock_guard<std::mutex> lock(mu_);
    for (SyscallTable::Entry &e : tbl.dense_)
        if (!e.empty())
            e.statSlot = slots_++;
    tbl.stats_ = this;
    tables_.push_back(&tbl);
}

void
TrapStats::recordTrap(const TrapContext &ctx, const SyscallResult &r,
                      std::uint64_t latency_ns)
{
    TrapShard &sh = shard();
    TraceRecord::Kind kind = TraceRecord::Kind::Trap;
    Persona to = Persona::Android;
    if (ctx.entry) {
        countEntry(sh, ctx.entry->statSlot, latency_ns, r.ok());
    } else if (ctx.table) {
        bump(sh.counter(Counter::UnknownNr));
    } else if (!r.ok()) {
        bump(sh.counter(Counter::Rejected));
    } else {
        // A trap with no table that nevertheless succeeded is
        // set_persona, which the dispatcher services before table
        // select. Its one record is the switch, latency included.
        bump(sh.counter(Counter::PersonaSwitches));
        kind = TraceRecord::Kind::PersonaSwitch;
        to = ctx.thread.persona();
    }

    std::uint64_t now = ctx.thread.clock().now();
    sh.trace(kind, ctx.cls, ctx.entryPersona, to, ctx.nr,
             ctx.thread.tid(), r.value, r.err, latency_ns, now);

    // Trap-boundary epoch merge: when the calling host thread is bound
    // to a simulated CPU, fold the thread's clock into that CPU's
    // trap epoch (DESIGN.md §11).
    if (CpuSlot *cpu = PerCpu::currentSlot()) {
        TrapShard::CpuMerge &m = sh.cpu[cpu->id];
        bump(m.merges);
        if (now > m.epochNs.load(kRelaxed))
            m.epochNs.store(now, kRelaxed);
    }
}

void
TrapStats::recordNoReturn(const TrapContext &ctx,
                          std::uint64_t latency_ns)
{
    TrapShard &sh = shard();
    bump(sh.counter(Counter::NoReturn));
    if (ctx.entry)
        countEntry(sh, ctx.entry->statSlot, latency_ns, true);
    sh.trace(TraceRecord::Kind::Trap, ctx.cls, ctx.entryPersona,
             Persona::Android, ctx.nr, ctx.thread.tid(), 0, 0,
             latency_ns, ctx.thread.clock().now());
}

void
TrapStats::recordPersonaSwitch(Thread &t, Persona from, Persona to)
{
    TrapShard &sh = shard();
    bump(sh.counter(Counter::PersonaSwitches));
    sh.trace(TraceRecord::Kind::PersonaSwitch, TrapClass::LinuxSyscall,
             from, to, 0, t.tid(), 0, 0, 0, t.clock().now());
}

void
TrapStats::recordBadArg()
{
    bump(shard().counter(Counter::BadArg));
}

void
TrapStats::recordOomKill()
{
    bump(shard().counter(Counter::OomKills));
}

SyscallStat
TrapStats::stat(const std::string &table, int nr) const
{
    SyscallStat out;
    for (const SyscallTable *t : tables_) {
        if (t->name() != table)
            continue;
        const SyscallTable::Entry *e = t->find(nr);
        if (!e)
            break;
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::shared_ptr<TrapShard> &s : shards_)
            if (e->statSlot < s->ncells)
                s->cells[e->statSlot].addTo(out);
        break;
    }
    return out;
}

std::uint64_t
TrapStats::calls(const std::string &table, int nr) const
{
    return stat(table, nr).calls;
}

std::uint64_t
TrapStats::errors(const std::string &table, int nr) const
{
    return stat(table, nr).errors;
}

std::uint64_t
TrapStats::totalNs(const std::string &table, int nr) const
{
    return stat(table, nr).totalNs;
}

std::uint64_t
TrapStats::tableCalls(const std::string &table) const
{
    std::uint64_t sum = 0;
    for (const SyscallTable *t : tables_) {
        if (t->name() != table)
            continue;
        for (int nr : t->registeredNumbers())
            sum += calls(table, nr);
    }
    return sum;
}

std::uint64_t
TrapStats::totalCalls() const
{
    std::uint64_t sum = 0;
    for (const SyscallTable *t : tables_)
        sum += tableCalls(t->name());
    return sum;
}

namespace {

std::uint64_t
sumCounter(std::mutex &mu,
           const std::vector<std::shared_ptr<TrapShard>> &shards,
           Counter c)
{
    std::uint64_t sum = 0;
    std::lock_guard<std::mutex> lock(mu);
    for (const std::shared_ptr<TrapShard> &s : shards)
        sum += s->counter(c);
    return sum;
}

} // namespace

std::uint64_t
TrapStats::personaSwitches() const
{
    return sumCounter(mu_, shards_, Counter::PersonaSwitches);
}

std::uint64_t
TrapStats::rejectedTraps() const
{
    return sumCounter(mu_, shards_, Counter::Rejected);
}

std::uint64_t
TrapStats::unknownSyscalls() const
{
    return sumCounter(mu_, shards_, Counter::UnknownNr);
}

std::uint64_t
TrapStats::badArgTraps() const
{
    return sumCounter(mu_, shards_, Counter::BadArg);
}

std::uint64_t
TrapStats::oomKills() const
{
    return sumCounter(mu_, shards_, Counter::OomKills);
}

std::vector<TraceRecord>
TrapStats::trace() const
{
    std::vector<TraceRecord> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<TrapShard> &s : shards_)
        s->snapshot(out);
    return out;
}

std::uint64_t
TrapStats::traceRecorded() const
{
    std::uint64_t sum = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<TrapShard> &s : shards_)
        sum += s->recorded.load(kRelaxed);
    return sum;
}

CpuTrapTotals
TrapStats::cpuTraps(unsigned cpu) const
{
    CpuTrapTotals out;
    if (cpu >= kMaxCpus)
        return out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<TrapShard> &s : shards_) {
        out.merges += s->cpu[cpu].merges.load(kRelaxed);
        out.epochNs =
            std::max(out.epochNs, s->cpu[cpu].epochNs.load(kRelaxed));
    }
    return out;
}

std::size_t
TrapStats::shardCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shards_.size();
}

namespace {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

std::string
TrapStats::dump() const
{
    std::string out;
    out += "=== cider trapstats ===\n";

    for (const SyscallTable *t : tables_) {
        std::vector<int> nrs = t->registeredNumbers();
        appendf(out, "table %s: %zu syscalls registered\n",
                t->name().c_str(), nrs.size());
        appendf(out, "  %8s %-18s %10s %8s %14s %10s %10s\n", "nr",
                "name", "calls", "errors", "total-ns", "min-ns",
                "max-ns");
        for (int nr : nrs) {
            const SyscallTable::Entry *e = t->find(nr);
            SyscallStat s = stat(t->name(), nr);
            if (s.calls == 0)
                continue;
            appendf(out,
                    "  %8d %-18s %10" PRIu64 " %8" PRIu64 " %14" PRIu64
                    " %10" PRIu64 " %10" PRIu64 "\n",
                    nr, e->name ? e->name : "?", s.calls, s.errors,
                    s.totalNs, s.minNs == ~std::uint64_t{0} ? 0 : s.minNs,
                    s.maxNs);
            out += "           hist(ns):";
            for (int b = 0; b < SyscallStat::kBuckets; ++b) {
                std::uint64_t c = s.hist[static_cast<std::size_t>(b)];
                if (c == 0)
                    continue;
                appendf(out, " [2^%d]=%" PRIu64, b, c);
            }
            out += "\n";
        }
    }

    appendf(out, "persona-switches: %" PRIu64 "\n", personaSwitches());
    appendf(out, "rejected-traps: %" PRIu64 "\n", rejectedTraps());
    appendf(out, "unknown-syscalls: %" PRIu64 "\n", unknownSyscalls());
    appendf(out, "noreturn-traps: %" PRIu64 "\n",
            sumCounter(mu_, shards_, Counter::NoReturn));
    appendf(out, "badarg-traps: %" PRIu64 "\n", badArgTraps());
    appendf(out, "oom-kills: %" PRIu64 "\n", oomKills());

    std::vector<TraceRecord> records = trace();
    appendf(out, "trace: %zu of %" PRIu64 " records\n", records.size(),
            traceRecorded());
    for (const TraceRecord &r : records) {
        if (r.kind == TraceRecord::Kind::PersonaSwitch) {
            appendf(out,
                    "  #%-6" PRIu64 " tid=%-4d set_persona %s -> %s "
                    "lat=%" PRIu64 " t=%" PRIu64 "\n",
                    r.seq, r.tid, personaName(r.persona),
                    personaName(r.toPersona), r.latencyNs, r.timeNs);
            continue;
        }
        appendf(out,
                "  #%-6" PRIu64 " tid=%-4d %s %s nr=%d val=%lld "
                "err=%d lat=%" PRIu64 " t=%" PRIu64 "\n",
                r.seq, r.tid, personaName(r.persona),
                trapClassName(r.cls), r.nr,
                static_cast<long long>(r.value), r.err, r.latencyNs,
                r.timeNs);
    }
    return out;
}

void
TrapStats::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<TrapShard> &s : shards_)
        s->reset();
}

} // namespace cider::kernel
