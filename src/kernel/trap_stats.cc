#include "kernel/trap_stats.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "kernel/kernel.h"
#include "kernel/thread.h"
#include "kernel/trap_context.h"

namespace cider::kernel {

int
SyscallStat::bucketOf(std::uint64_t ns)
{
    int b = 0;
    while (ns > 1 && b < kBuckets - 1) {
        ns >>= 1;
        ++b;
    }
    return b;
}

void
SyscallStat::record(std::uint64_t latency_ns, bool ok)
{
    calls.fetch_add(1, std::memory_order_relaxed);
    if (!ok)
        errors.fetch_add(1, std::memory_order_relaxed);
    totalNs.fetch_add(latency_ns, std::memory_order_relaxed);
    hist[static_cast<std::size_t>(bucketOf(latency_ns))].fetch_add(
        1, std::memory_order_relaxed);

    std::uint64_t seen = minNs.load(std::memory_order_relaxed);
    while (latency_ns < seen &&
           !minNs.compare_exchange_weak(seen, latency_ns,
                                        std::memory_order_relaxed))
        ;
    seen = maxNs.load(std::memory_order_relaxed);
    while (latency_ns > seen &&
           !maxNs.compare_exchange_weak(seen, latency_ns,
                                        std::memory_order_relaxed))
        ;
}

TrapTracer::TrapTracer(std::size_t capacity)
{
    std::size_t cap = 1;
    while (cap < capacity)
        cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    cap_ = cap;
    mask_ = cap - 1;
}

void
TrapTracer::record(TraceRecord rec)
{
    std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    rec.seq = ticket;
    Slot &slot = slots_[static_cast<std::size_t>(ticket) & mask_];
    std::uint64_t claim = slot.seq.load(std::memory_order_relaxed);
    // Claim even -> odd; a peer holding the slot (writer lapping us,
    // or a snapshot mid-copy) makes us drop rather than tear.
    if ((claim & 1) ||
        !slot.seq.compare_exchange_strong(claim, claim + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    slot.rec = rec;
    slot.seq.store(claim + 2, std::memory_order_release);
}

std::vector<TraceRecord>
TrapTracer::snapshot() const
{
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t count = std::min<std::uint64_t>(head, cap_);
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = head - count; i < head; ++i) {
        Slot &slot = slots_[static_cast<std::size_t>(i) & mask_];
        std::uint64_t claim = slot.seq.load(std::memory_order_relaxed);
        if ((claim & 1) ||
            !slot.seq.compare_exchange_strong(claim, claim + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed))
            continue; // a writer holds it; skip, never tear
        TraceRecord rec = slot.rec;
        slot.seq.store(claim, std::memory_order_release);
        // With drops the slot may hold a record from a different lap;
        // the embedded sequence keeps the copy honest.
        if (rec.seq == i)
            out.push_back(rec);
    }
    return out;
}

void
TrapTracer::reset()
{
    // Benchmark warm-up only — not safe against concurrent writers,
    // like every other reset() in the stats subsystem.
    head_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < cap_; ++i) {
        slots_[i].seq.store(0, std::memory_order_relaxed);
        slots_[i].rec = TraceRecord{};
    }
}

TrapStats::TrapStats() = default;

void
TrapStats::attachTable(const SyscallTable &tbl)
{
    for (const SyscallTable *t : tables_)
        if (t == &tbl)
            return;
    tables_.push_back(&tbl);
}

void
TrapStats::recordTrap(const TrapContext &ctx, const SyscallResult &r,
                      std::uint64_t latency_ns)
{
    TraceRecord rec;
    if (ctx.entry && ctx.entry->stat) {
        ctx.entry->stat->record(latency_ns, r.ok());
    } else if (ctx.table) {
        unknownNr_.fetch_add(1, std::memory_order_relaxed);
    } else if (!r.ok()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // A trap with no table that nevertheless succeeded is
        // set_persona, which the dispatcher services before table
        // select. Its one record is the switch, latency included.
        personaSwitches_.fetch_add(1, std::memory_order_relaxed);
        rec.kind = TraceRecord::Kind::PersonaSwitch;
        rec.toPersona = ctx.thread.persona();
    }

    rec.cls = ctx.cls;
    rec.persona = ctx.entryPersona;
    rec.nr = ctx.nr;
    rec.tid = ctx.thread.tid();
    rec.value = r.value;
    rec.err = r.err;
    rec.latencyNs = latency_ns;
    rec.timeNs = ctx.thread.clock().now();
    tracer_.record(rec);
}

void
TrapStats::recordNoReturn(const TrapContext &ctx,
                          std::uint64_t latency_ns)
{
    noReturnTraps_.fetch_add(1, std::memory_order_relaxed);
    if (ctx.entry && ctx.entry->stat)
        ctx.entry->stat->record(latency_ns, true);

    TraceRecord rec;
    rec.kind = TraceRecord::Kind::Trap;
    rec.cls = ctx.cls;
    rec.persona = ctx.entryPersona;
    rec.nr = ctx.nr;
    rec.tid = ctx.thread.tid();
    rec.latencyNs = latency_ns;
    rec.timeNs = ctx.thread.clock().now();
    tracer_.record(rec);
}

void
TrapStats::recordPersonaSwitch(Thread &t, Persona from, Persona to)
{
    personaSwitches_.fetch_add(1, std::memory_order_relaxed);

    TraceRecord rec;
    rec.kind = TraceRecord::Kind::PersonaSwitch;
    rec.persona = from;
    rec.toPersona = to;
    rec.tid = t.tid();
    rec.timeNs = t.clock().now();
    tracer_.record(rec);
}

const SyscallStat *
TrapStats::stat(const std::string &table, int nr) const
{
    for (const SyscallTable *t : tables_) {
        if (t->name() != table)
            continue;
        if (const SyscallTable::Entry *e = t->find(nr))
            return e->stat.get();
        return nullptr;
    }
    return nullptr;
}

std::uint64_t
TrapStats::calls(const std::string &table, int nr) const
{
    const SyscallStat *s = stat(table, nr);
    return s ? s->calls.load(std::memory_order_relaxed) : 0;
}

std::uint64_t
TrapStats::errors(const std::string &table, int nr) const
{
    const SyscallStat *s = stat(table, nr);
    return s ? s->errors.load(std::memory_order_relaxed) : 0;
}

std::uint64_t
TrapStats::totalNs(const std::string &table, int nr) const
{
    const SyscallStat *s = stat(table, nr);
    return s ? s->totalNs.load(std::memory_order_relaxed) : 0;
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
            if (!e || !e->stat)
                continue;
            const SyscallStat &s = *e->stat;
            std::uint64_t n = s.calls.load(std::memory_order_relaxed);
            if (n == 0)
                continue;
            std::uint64_t mn = s.minNs.load(std::memory_order_relaxed);
            appendf(out,
                    "  %8d %-18s %10" PRIu64 " %8" PRIu64 " %14" PRIu64
                    " %10" PRIu64 " %10" PRIu64 "\n",
                    nr, e->name ? e->name : "?", n,
                    s.errors.load(std::memory_order_relaxed),
                    s.totalNs.load(std::memory_order_relaxed),
                    mn == ~std::uint64_t{0} ? 0 : mn,
                    s.maxNs.load(std::memory_order_relaxed));
            out += "           hist(ns):";
            for (int b = 0; b < SyscallStat::kBuckets; ++b) {
                std::uint64_t c = s.hist[static_cast<std::size_t>(b)]
                                      .load(std::memory_order_relaxed);
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
            noReturnTraps_.load(std::memory_order_relaxed));
    appendf(out, "badarg-traps: %" PRIu64 "\n", badArgTraps());
    appendf(out, "oom-kills: %" PRIu64 "\n", oomKills());

    std::vector<TraceRecord> trace = tracer_.snapshot();
    appendf(out, "trace: %zu of %" PRIu64 " records\n", trace.size(),
            tracer_.recorded());
    for (const TraceRecord &r : trace) {
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
    for (const SyscallTable *t : tables_) {
        for (int nr : t->registeredNumbers()) {
            const SyscallTable::Entry *e = t->find(nr);
            if (!e || !e->stat)
                continue;
            SyscallStat &s = *e->stat;
            s.calls.store(0, std::memory_order_relaxed);
            s.errors.store(0, std::memory_order_relaxed);
            s.totalNs.store(0, std::memory_order_relaxed);
            s.minNs.store(~std::uint64_t{0}, std::memory_order_relaxed);
            s.maxNs.store(0, std::memory_order_relaxed);
            for (auto &b : s.hist)
                b.store(0, std::memory_order_relaxed);
        }
    }
    personaSwitches_.store(0, std::memory_order_relaxed);
    rejected_.store(0, std::memory_order_relaxed);
    unknownNr_.store(0, std::memory_order_relaxed);
    noReturnTraps_.store(0, std::memory_order_relaxed);
    badArgTraps_.store(0, std::memory_order_relaxed);
    oomKills_.store(0, std::memory_order_relaxed);
    tracer_.reset();
}

} // namespace cider::kernel
