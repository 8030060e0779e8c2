#include "kernel/fault_rail.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "base/cost_clock.h"
#include "ducttape/xnu_api.h"
#include "kernel/process.h"
#include "kernel/thread.h"

namespace cider::kernel {

FaultRail &
FaultRail::global()
{
    static FaultRail rail;
    return rail;
}

FaultRail::SiteId
FaultRail::site(const char *name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < sites_.size(); ++i)
        if (sites_[i]->name == name)
            return static_cast<SiteId>(i);
    auto s = std::make_unique<Site>();
    s->name = name;
    sites_.push_back(std::move(s));
    return static_cast<SiteId>(sites_.size() - 1);
}

FaultRail::Site *
FaultRail::findLocked(const std::string &site_name)
{
    for (auto &s : sites_)
        if (s->name == site_name)
            return s.get();
    return nullptr;
}

const FaultRail::Site *
FaultRail::findLocked(const std::string &site_name) const
{
    for (const auto &s : sites_)
        if (s->name == site_name)
            return s.get();
    return nullptr;
}

void
FaultRail::bumpActivity(int delta)
{
    // Callers hold mu_; activity_ is the lock-free mirror of
    // armedCount_ + tracking_ that the fast path reads.
    std::uint32_t next =
        armedCount_ + (tracking_ ? 1u : 0u);
    (void)delta;
    activity_.store(next, std::memory_order_relaxed);
}

void
FaultRail::arm(const std::string &site_name, const FaultSpec &spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    Site *s = findLocked(site_name);
    if (!s) {
        auto fresh = std::make_unique<Site>();
        fresh->name = site_name;
        sites_.push_back(std::move(fresh));
        s = sites_.back().get();
    }
    if (!s->armed && spec.kind != FaultSpec::Kind::Never)
        ++armedCount_;
    else if (s->armed && spec.kind == FaultSpec::Kind::Never)
        --armedCount_;
    s->armed = spec.kind != FaultSpec::Kind::Never;
    s->spec = spec;
    // Nth/EveryK count from arming (and only pid-matching hits), so
    // every arm starts the policy stream fresh.
    s->policyHits = 0;
    if (spec.kind == FaultSpec::Kind::Probability)
        s->rng = Rng(spec.seed);
    bumpActivity(0);
}

void
FaultRail::armNth(const std::string &site_name, std::uint64_t n, Pid pid)
{
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::Nth;
    spec.n = n;
    spec.pid = pid;
    arm(site_name, spec);
}

void
FaultRail::armEveryK(const std::string &site_name, std::uint64_t k,
                     Pid pid)
{
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::EveryK;
    spec.n = k ? k : 1;
    spec.pid = pid;
    arm(site_name, spec);
}

void
FaultRail::armProbability(const std::string &site_name, double p,
                          std::uint64_t seed, Pid pid)
{
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::Probability;
    spec.p = p;
    spec.seed = seed;
    spec.pid = pid;
    arm(site_name, spec);
}

void
FaultRail::armWindow(const std::string &site_name, std::uint64_t start_ns,
                     std::uint64_t end_ns, Pid pid)
{
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::Window;
    spec.startNs = start_ns;
    spec.endNs = end_ns;
    spec.pid = pid;
    arm(site_name, spec);
}

void
FaultRail::disarm(const std::string &site_name)
{
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::Never;
    arm(site_name, spec);
}

void
FaultRail::disarmAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &s : sites_) {
        s->armed = false;
        s->spec = FaultSpec{};
        s->policyHits = 0;
    }
    armedCount_ = 0;
    bumpActivity(0);
}

void
FaultRail::setTracking(bool on)
{
    std::lock_guard<std::mutex> lock(mu_);
    tracking_ = on;
    bumpActivity(0);
}

bool
FaultRail::shouldFailSlow(SiteId id)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= sites_.size())
        return false;
    Site &s = *sites_[id];
    // Raw traffic counter (the hits column of /proc/cider/faults):
    // every evaluation while the rail is active, any process.
    s.hits.fetch_add(1, std::memory_order_relaxed);
    if (!s.armed)
        return false;

    // Per-process scope: an unscoped site fires for any caller; a
    // scoped one only when the host thread simulates that pid. The
    // filter runs before policy counting so foreign-pid traffic never
    // consumes an Nth/EveryK slot.
    if (s.spec.pid >= 0) {
        Thread *t = Thread::current();
        if (!t || t->process().pid() != s.spec.pid)
            return false;
    }

    std::uint64_t hit = ++s.policyHits;
    bool fire = false;
    switch (s.spec.kind) {
      case FaultSpec::Kind::Never:
        break;
      case FaultSpec::Kind::Nth:
        fire = hit == s.spec.n;
        break;
      case FaultSpec::Kind::EveryK:
        fire = (hit % s.spec.n) == 0;
        break;
      case FaultSpec::Kind::Probability:
        fire = s.rng.chance(s.spec.p);
        break;
      case FaultSpec::Kind::Window: {
        std::uint64_t now = virtualNow();
        fire = now >= s.spec.startNs && now < s.spec.endNs;
        break;
      }
    }
    if (fire)
        s.trips.fetch_add(1, std::memory_order_relaxed);
    return fire;
}

std::uint64_t
FaultRail::hits(const std::string &site_name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Site *s = findLocked(site_name);
    return s ? s->hits.load(std::memory_order_relaxed) : 0;
}

std::uint64_t
FaultRail::trips(const std::string &site_name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Site *s = findLocked(site_name);
    return s ? s->trips.load(std::memory_order_relaxed) : 0;
}

std::uint64_t
FaultRail::totalTrips() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t sum = 0;
    for (const auto &s : sites_)
        sum += s->trips.load(std::memory_order_relaxed);
    return sum;
}

std::vector<FaultSiteStats>
FaultRail::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<FaultSiteStats> out;
    out.reserve(sites_.size());
    for (const auto &s : sites_) {
        FaultSiteStats st;
        st.name = s->name;
        st.armed = s->armed;
        st.spec = s->spec;
        st.hits = s->hits.load(std::memory_order_relaxed);
        st.trips = s->trips.load(std::memory_order_relaxed);
        out.push_back(std::move(st));
    }
    return out;
}

std::size_t
FaultRail::siteCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sites_.size();
}

void
FaultRail::resetCounters()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &s : sites_) {
        s->hits.store(0, std::memory_order_relaxed);
        s->trips.store(0, std::memory_order_relaxed);
        s->policyHits = 0;
    }
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

std::string
policyText(const FaultSpec &spec)
{
    char buf[96];
    switch (spec.kind) {
      case FaultSpec::Kind::Never:
        return "-";
      case FaultSpec::Kind::Nth:
        std::snprintf(buf, sizeof(buf), "nth(%" PRIu64 ")", spec.n);
        break;
      case FaultSpec::Kind::EveryK:
        std::snprintf(buf, sizeof(buf), "every(%" PRIu64 ")", spec.n);
        break;
      case FaultSpec::Kind::Probability:
        std::snprintf(buf, sizeof(buf), "prob(%.4f,seed=%" PRIu64 ")",
                      spec.p, spec.seed);
        break;
      case FaultSpec::Kind::Window:
        std::snprintf(buf, sizeof(buf),
                      "window[%" PRIu64 ",%" PRIu64 ")", spec.startNs,
                      spec.endNs);
        break;
    }
    std::string text = buf;
    if (spec.pid >= 0) {
        std::snprintf(buf, sizeof(buf), " pid=%d", spec.pid);
        text += buf;
    }
    return text;
}

} // namespace

std::string
FaultRail::dump() const
{
    std::string out;
    out += "=== cider faults ===\n";
    appendf(out, "  %-28s %-6s %-28s %10s %8s\n", "site", "armed",
            "policy", "hits", "trips");
    for (const FaultSiteStats &st : snapshot()) {
        appendf(out, "  %-28s %-6s %-28s %10" PRIu64 " %8" PRIu64 "\n",
                st.name.c_str(), st.armed ? "yes" : "no",
                policyText(st.spec).c_str(), st.hits, st.trips);
    }

    // Hung-wait watchdog: threads parked in duct-taped wait queues
    // longer than the host threshold are likely stuck for good (a
    // lost wakeup or a never-signalled port).
    std::vector<ducttape::BlockedWait> stuck =
        ducttape::waitq_blocked_waits(watchdogMs_);
    appendf(out, "hung-waits (>%.0f host-ms): %zu\n", watchdogMs_,
            stuck.size());
    for (const ducttape::BlockedWait &w : stuck)
        appendf(out, "  site=%s blocked=%.1fms vtime=%" PRIu64 "\n",
                w.site ? w.site : "waitq", w.hostBlockedMs, w.virtualNs);
    return out;
}

} // namespace cider::kernel
