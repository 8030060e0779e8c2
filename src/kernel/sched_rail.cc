#include "kernel/sched_rail.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "base/logging.h"

namespace cider::kernel {

// ---------------------------------------------------------------------------
// SchedResult

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

std::vector<std::uint32_t>
SchedResult::schedule() const
{
    std::vector<std::uint32_t> out;
    out.reserve(trace.size());
    for (const SchedEvent &ev : trace)
        out.push_back(ev.chosen);
    return out;
}

std::string
SchedResult::traceText() const
{
    std::string out = "# schedrail trace v1\n";
    for (const SchedEvent &ev : trace) {
        appendf(out, "%" PRIu64 " %c pick=t%" PRIu32 "%s enabled=[",
                ev.index, ev.kind, ev.chosen, ev.timeoutFired ? "!" : "");
        for (std::size_t i = 0; i < ev.enabled.size(); ++i)
            appendf(out, "%st%" PRIu32, i ? "," : "", ev.enabled[i]);
        appendf(out, "] site=%s\n", ev.site ? ev.site : "?");
    }
    if (deadlocked) {
        out += "# deadlock\n";
        for (const std::string &b : blockedThreads)
            out += "#   " + b + "\n";
    }
    return out;
}

bool
SchedResult::writeTrace(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << traceText();
    return static_cast<bool>(f);
}

std::vector<std::uint32_t>
SchedResult::parseSchedule(const std::string &text)
{
    std::vector<std::uint32_t> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t p = line.find("pick=t");
        if (p == std::string::npos)
            continue;
        p += 6;
        std::uint32_t v = 0;
        bool any = false;
        while (p < line.size() && line[p] >= '0' && line[p] <= '9') {
            v = v * 10u + static_cast<std::uint32_t>(line[p] - '0');
            ++p;
            any = true;
        }
        if (any)
            out.push_back(v);
    }
    return out;
}

// ---------------------------------------------------------------------------
// LockOrderGraph

namespace {

/** Locks the calling host thread currently holds, oldest first. */
thread_local std::vector<const void *> t_heldLocks;

} // namespace

void
LockOrderGraph::setTracking(bool on)
{
    tracking_.store(on, std::memory_order_relaxed);
}

void
LockOrderGraph::acquired(const void *lock, const char *label)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        Node &node = nodes_[lock];
        if (node.label.empty())
            node.label = label && *label ? label : "lck";
        for (const void *held : t_heldLocks)
            if (held != lock)
                ++nodes_[held].out[lock];
    }
    t_heldLocks.push_back(lock);
}

void
LockOrderGraph::released(const void *lock)
{
    // Tolerate locks acquired before tracking flipped on: a release
    // with no matching entry is a no-op.
    auto it = std::find(t_heldLocks.rbegin(), t_heldLocks.rend(), lock);
    if (it != t_heldLocks.rend())
        t_heldLocks.erase(std::next(it).base());
}

void
LockOrderGraph::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    nodes_.clear();
}

std::size_t
LockOrderGraph::nodeCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return nodes_.size();
}

std::size_t
LockOrderGraph::edgeCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto &kv : nodes_)
        n += kv.second.out.size();
    return n;
}

std::vector<std::string>
LockOrderGraph::cycles() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out;
    std::map<const void *, int> color; // 0 white, 1 on stack, 2 done
    std::vector<const void *> stack;

    auto labelOf = [&](const void *n) -> std::string {
        auto it = nodes_.find(n);
        return it == nodes_.end() || it->second.label.empty()
                   ? "?"
                   : it->second.label;
    };

    std::function<void(const void *)> dfs = [&](const void *u) {
        color[u] = 1;
        stack.push_back(u);
        auto it = nodes_.find(u);
        if (it != nodes_.end()) {
            for (const auto &edge : it->second.out) {
                const void *v = edge.first;
                if (color[v] == 1) {
                    std::string s;
                    auto from =
                        std::find(stack.begin(), stack.end(), v);
                    for (auto p = from; p != stack.end(); ++p)
                        s += labelOf(*p) + " -> ";
                    s += labelOf(v);
                    out.push_back(std::move(s));
                } else if (color[v] == 0) {
                    dfs(v);
                }
            }
        }
        stack.pop_back();
        color[u] = 2;
    };

    for (const auto &kv : nodes_)
        if (color[kv.first] == 0)
            dfs(kv.first);
    return out;
}

std::string
LockOrderGraph::dump() const
{
    std::string out = "=== cider lockorder ===\n";
    appendf(out, "tracking: %s\n", tracking() ? "on" : "off");
    std::vector<std::string> cyc = cycles();
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::size_t edges = 0;
        for (const auto &kv : nodes_)
            edges += kv.second.out.size();
        appendf(out, "nodes: %zu edges: %zu\n", nodes_.size(), edges);
        for (const auto &kv : nodes_) {
            for (const auto &edge : kv.second.out) {
                auto dst = nodes_.find(edge.first);
                appendf(out, "  %s -> %s [%" PRIu64 "]\n",
                        kv.second.label.c_str(),
                        dst == nodes_.end() ? "?"
                                            : dst->second.label.c_str(),
                        edge.second);
            }
        }
    }
    appendf(out, "cycles: %zu\n", cyc.size());
    for (const std::string &c : cyc)
        out += "  " + c + "\n";
    return out;
}

// ---------------------------------------------------------------------------
// SchedRail

struct SchedRail::Guest
{
    enum class St
    {
        Ready,
        Running,
        Blocked,
        BlockedDeadline,
        Done,
    };

    std::uint32_t id = 0;
    std::string name;
    std::thread host;
    St st = St::Ready;
    const void *channel = nullptr;
    const char *blockSite = nullptr;
    std::uint64_t blockSeq = 0;
    bool timeoutFired = false;
    std::condition_variable cv;
};

thread_local SchedRail::Guest *SchedRail::tGuest_ = nullptr;

SchedRail &
SchedRail::global()
{
    static SchedRail rail;
    return rail;
}

const void *
SchedRail::guestMarker()
{
    return tGuest_;
}

void
SchedRail::arm(const SchedOptions &opt)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (running_)
        cider_panic("SchedRail::arm: episode in progress");
    if (!guests_.empty())
        cider_panic("SchedRail::arm: spawned guests pending; ",
                    "run() or disarm() first");
    options_ = opt;
    engaged_.store(true, std::memory_order_relaxed);
}

void
SchedRail::disarm()
{
    std::vector<std::thread> hosts;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (running_)
            cider_panic("SchedRail::disarm: episode in progress");
        engaged_.store(false, std::memory_order_relaxed);
        if (!guests_.empty()) {
            // Reap guests spawned but never run: wake them at the
            // start gate with the abort flag so they unwind.
            aborted_ = true;
            for (auto &g : guests_) {
                g->cv.notify_all();
                hosts.push_back(std::move(g->host));
            }
        }
    }
    for (auto &h : hosts)
        if (h.joinable())
            h.join();
    std::lock_guard<std::mutex> lk(mu_);
    guests_.clear();
    aborted_ = false;
}

void
SchedRail::spawn(const char *name, std::function<void()> fn)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!engaged_.load(std::memory_order_relaxed))
        cider_panic("SchedRail::spawn: rail is not armed");
    if (running_)
        cider_panic("SchedRail::spawn: episode in progress");
    auto g = std::make_unique<Guest>();
    g->id = static_cast<std::uint32_t>(guests_.size());
    g->name = name && *name ? name : "guest";
    Guest *gp = g.get();
    guests_.push_back(std::move(g));
    gp->host = std::thread(
        [this, gp, body = std::move(fn)] { guestMain(gp, body); });
}

void
SchedRail::parkUntilScheduled(std::unique_lock<std::mutex> &lk, Guest *g)
{
    g->cv.wait(lk, [&] {
        return aborted_ || (running_ && runningId_ == g->id &&
                            g->st == Guest::St::Running);
    });
    if (aborted_)
        throw SchedRailAbort{};
}

void
SchedRail::guestMain(Guest *g, const std::function<void()> &fn)
{
    tGuest_ = g;
    try {
        {
            std::unique_lock<std::mutex> lk(mu_);
            parkUntilScheduled(lk, g);
        }
        fn();
    } catch (const SchedRailAbort &) {
        // Episode aborted (deadlock or disarm); unwind quietly.
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        guestThrew_ = true;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        g->st = Guest::St::Done;
        if (running_ && !aborted_ && runningId_ == g->id)
            pickNextLocked("thread.exit", 'f');
    }
    tGuest_ = nullptr;
}

SchedResult
SchedRail::run()
{
    std::vector<std::thread> hosts;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (!engaged_.load(std::memory_order_relaxed))
            cider_panic("SchedRail::run: rail is not armed");
        if (running_)
            cider_panic("SchedRail::run: episode already in progress");
        trace_.clear();
        blockedThreads_.clear();
        preemptions_ = 0;
        nextBlockSeq_ = 0;
        aborted_ = false;
        deadlocked_ = false;
        diverged_ = false;
        guestThrew_ = false;
        runningId_ = kNoGuest;
        rng_ = Rng(options_.seed);
        if (!guests_.empty()) {
            running_ = true;
            pickNextLocked("run.start", 's');
            controllerCv_.wait(lk, [&] { return !running_; });
        }
        hosts.reserve(guests_.size());
        for (auto &g : guests_)
            hosts.push_back(std::move(g->host));
    }
    for (auto &h : hosts)
        if (h.joinable())
            h.join();

    SchedResult r;
    {
        std::lock_guard<std::mutex> lk(mu_);
        r.deadlocked = deadlocked_;
        r.diverged = diverged_;
        r.completed = !deadlocked_ && !guestThrew_;
        r.decisions = trace_.size();
        r.preemptions = preemptions_;
        r.trace = trace_;
        r.blockedThreads = blockedThreads_;
        guests_.clear();
        aborted_ = false;
    }
    lastResult_ = r;
    return r;
}

void
SchedRail::yieldPoint(const char *site)
{
    Guest *g = tGuest_;
    if (!g)
        return;
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_) {
        if (aborted_)
            throw SchedRailAbort{};
        return;
    }
    g->st = Guest::St::Ready;
    pickNextLocked(site, 'y');
    parkUntilScheduled(lk, g);
}

void
SchedRail::pass(const char *site)
{
    Guest *g = tGuest_;
    if (!g)
        return;
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_) {
        if (aborted_)
            throw SchedRailAbort{};
        return;
    }
    g->st = Guest::St::Ready;
    pickNextLocked(site, 'p');
    parkUntilScheduled(lk, g);
}

void
SchedRail::blockOn(const void *channel, const char *site)
{
    Guest *g = tGuest_;
    if (!g)
        cider_panic("SchedRail::blockOn outside a rail guest");
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_)
        throw SchedRailAbort{};
    g->st = Guest::St::Blocked;
    g->channel = channel;
    g->blockSite = site;
    g->blockSeq = nextBlockSeq_++;
    g->timeoutFired = false;
    pickNextLocked(site, 'b');
    parkUntilScheduled(lk, g);
    g->channel = nullptr;
}

bool
SchedRail::blockOnDeadline(const void *channel, const char *site)
{
    Guest *g = tGuest_;
    if (!g)
        cider_panic("SchedRail::blockOnDeadline outside a rail guest");
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_)
        throw SchedRailAbort{};
    g->st = Guest::St::BlockedDeadline;
    g->channel = channel;
    g->blockSite = site;
    g->blockSeq = nextBlockSeq_++;
    g->timeoutFired = false;
    pickNextLocked(site, 'd');
    parkUntilScheduled(lk, g);
    g->channel = nullptr;
    bool fired = g->timeoutFired;
    g->timeoutFired = false;
    return fired;
}

void
SchedRail::wakeupChannel(const void *channel, bool all)
{
    if (!engaged())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    Guest *oldest = nullptr;
    for (auto &g : guests_) {
        if (g->channel != channel)
            continue;
        if (g->st != Guest::St::Blocked &&
            g->st != Guest::St::BlockedDeadline)
            continue;
        if (all) {
            g->st = Guest::St::Ready;
            g->channel = nullptr;
        } else if (!oldest || g->blockSeq < oldest->blockSeq) {
            oldest = g.get();
        }
    }
    if (!all && oldest) {
        oldest->st = Guest::St::Ready;
        oldest->channel = nullptr;
    }
}

std::uint32_t
SchedRail::defaultPickLocked(const std::vector<std::uint32_t> &enabled,
                             std::uint32_t prev, char kind) const
{
    auto isReady = [&](std::uint32_t id) {
        return guests_[id]->st == Guest::St::Ready;
    };
    bool prevIn =
        std::find(enabled.begin(), enabled.end(), prev) != enabled.end();
    if (kind == 'y' && prevIn)
        return prev; // non-preemptive: keep running the yielder
    if (kind == 'p') {
        // Voluntary hand-off: prefer another runnable guest so guest
        // spin-waits make progress under deterministic defaults.
        for (std::uint32_t id : enabled)
            if (id != prev && isReady(id))
                return id;
        for (std::uint32_t id : enabled)
            if (id != prev)
                return id;
        return enabled.front();
    }
    // Blocking/finish decisions: prefer a runnable guest; fire a
    // timeout only when nothing else can run.
    for (std::uint32_t id : enabled)
        if (isReady(id))
            return id;
    return enabled.front();
}

void
SchedRail::pickNextLocked(const char *site, char kind)
{
    const std::uint32_t prev = runningId_;
    std::vector<std::uint32_t> enabled;
    bool allDone = true;
    for (const auto &g : guests_) {
        if (g->st == Guest::St::Ready ||
            g->st == Guest::St::BlockedDeadline)
            enabled.push_back(g->id);
        if (g->st != Guest::St::Done)
            allDone = false;
    }

    if (enabled.empty()) {
        if (allDone) {
            running_ = false;
            runningId_ = kNoGuest;
            controllerCv_.notify_all();
            return;
        }
        // Every live guest is parked on a channel with no deadline:
        // nothing can ever wake them. Report and abort the episode.
        deadlocked_ = true;
        for (const auto &g : guests_)
            if (g->st != Guest::St::Done)
                blockedThreads_.push_back(
                    g->name + " @ " +
                    (g->blockSite ? g->blockSite : "?"));
        abortLocked();
        return;
    }

    std::uint32_t chosen = enabled.front();
    bool scripted = false;
    const std::uint64_t k = trace_.size();
    if (options_.policy != SchedPolicy::Random &&
        k < options_.schedule.size()) {
        const std::uint32_t want = options_.schedule[k];
        if (std::find(enabled.begin(), enabled.end(), want) !=
            enabled.end()) {
            chosen = want;
            scripted = true;
        } else {
            diverged_ = true;
        }
    }
    if (!scripted) {
        if (options_.policy == SchedPolicy::Random)
            chosen = enabled[static_cast<std::size_t>(
                rng_.below(enabled.size()))];
        else
            chosen = defaultPickLocked(enabled, prev, kind);
    }

    Guest &next = *guests_[chosen];
    SchedEvent ev;
    ev.index = k;
    ev.kind = kind;
    ev.chosen = chosen;
    ev.timeoutFired = next.st == Guest::St::BlockedDeadline;
    ev.site = site;
    ev.enabled = enabled;
    trace_.push_back(std::move(ev));
    if (kind == 'y' && prev != kNoGuest && chosen != prev)
        ++preemptions_;

    if (next.st == Guest::St::BlockedDeadline)
        next.timeoutFired = true;
    next.st = Guest::St::Running;
    next.channel = nullptr;
    runningId_ = chosen;
    next.cv.notify_all();
}

void
SchedRail::abortLocked()
{
    aborted_ = true;
    running_ = false;
    runningId_ = kNoGuest;
    for (auto &g : guests_)
        g->cv.notify_all();
    controllerCv_.notify_all();
}

// ---------------------------------------------------------------------------
// Bounded-preemption DFS explorer

ExploreResult
exploreSchedules(SchedRail &rail, const std::function<void()> &setup,
                 const std::function<bool()> &episode_ok,
                 const ExploreOptions &opt)
{
    ExploreResult res;
    std::vector<std::vector<std::uint32_t>> frontier;
    frontier.push_back({});

    while (!frontier.empty()) {
        if (res.schedulesRun >=
            static_cast<std::uint64_t>(opt.maxSchedules)) {
            res.exhausted = true;
            break;
        }
        std::vector<std::uint32_t> prefix = std::move(frontier.back());
        frontier.pop_back();

        SchedOptions so;
        so.policy = SchedPolicy::Explore;
        so.schedule = prefix;
        rail.arm(so);
        setup();
        SchedResult r = rail.run();
        ++res.schedulesRun;

        if (r.deadlocked || !r.completed || !episode_ok()) {
            res.bugFound = true;
            res.failing = r;
            res.failingSchedule = r.schedule();
            rail.disarm();
            return res;
        }

        // Branch on the untried alternatives at and past the forced
        // prefix. Explore defaults are non-preemptive, so the only
        // preemptions are the ones the prefix forces; count them
        // incrementally while scanning.
        const std::vector<std::uint32_t> sched = r.schedule();
        int preempts = 0;
        for (std::size_t d = 0; d < r.trace.size(); ++d) {
            const SchedEvent &ev = r.trace[d];
            const std::uint32_t prev = d ? sched[d - 1] : 0;
            const bool prevEnabled =
                d > 0 && std::find(ev.enabled.begin(), ev.enabled.end(),
                                   prev) != ev.enabled.end();
            if (d >= prefix.size()) {
                for (std::uint32_t alt : ev.enabled) {
                    if (alt == ev.chosen)
                        continue;
                    const int cost =
                        ev.kind == 'y' && prevEnabled && alt != prev
                            ? 1
                            : 0;
                    if (preempts + cost > opt.maxPreemptions)
                        continue;
                    std::vector<std::uint32_t> next(
                        sched.begin(),
                        sched.begin() + static_cast<std::ptrdiff_t>(d));
                    next.push_back(alt);
                    frontier.push_back(std::move(next));
                }
            }
            if (ev.kind == 'y' && prevEnabled && ev.chosen != prev)
                ++preempts;
        }
    }
    rail.disarm();
    return res;
}

} // namespace cider::kernel
