/**
 * @file
 * hostbench: the host-cost benchmark of the Cider simulator.
 *
 *   hostbench --workload trap_mix|app_launch|gl_frames|fleet --seed N
 *             --seconds S --trace 0|1 [--out DIR] [--git-rev R]
 *
 * A run drives the workload's op (a whole soak on fleet) for S seconds
 * of host time, in blocks that each run on a freshly set-up CiderIos
 * system; setup_s is the median of the set-ups. Host time is CPU
 * time, scaled to one fixed host speed by a host probe (probe.h) timed
 * around every set-up and every stretch of ops. --trace 0 prints the
 * end-to-end metrics; --trace 1 prints the per-layer metrics: span
 * self times, program counters read around the timed phase, and the
 * tracing overhead. The
 * last stdout line is the result object; the line before it is the
 * full report (sample counts, checks, build facts), also written to
 * DIR. See README.md for the workloads and the layer map.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "core/fleet.h"
#include "ducttape/xnu_api.h"
#include "kernel/percpu.h"
#include "probe.h"
#include "sim.h"

namespace hostbench {
namespace {

using cider::core::FleetOptions;
using cider::core::FleetReport;
using cider::core::FleetSoak;

enum class Kind
{
    TrapMix,
    AppLaunch,
    GlFrames,
    Fleet,
};

/** Warm-up ops closing each set-up: about 0.2 s of work each, so one
 *  set-up spans more than one burst of the box's speed swings. */
constexpr int kWarmTrapRounds = 20000;
constexpr int kWarmLaunchPairs = 800;
constexpr int kWarmFrames = 150;
constexpr std::size_t kWarmSessions = 192;
/** Fleet runs on half of a 4-core box. */
constexpr unsigned kFleetHostThreads = 2;

unsigned
hostThreads(Kind kind)
{
    return kind == Kind::Fleet ? kFleetHostThreads : 1;
}
/** The single-thread timed phase is cut into this many blocks, each on
 *  its own system. */
constexpr std::uint64_t kBlocks = 10;
/** A single-thread block runs its ops in stretches of this much host
 *  time, with the host probe timed between them. */
constexpr std::uint64_t kStretchNs = 100'000'000;
/** Untraced op latencies per latency window, so a window's p99 has ten
 *  samples beyond it. op_p50_us and op_p99_us are op-weighted means
 *  over windows (the last, partial one included). */
constexpr std::size_t kWindowOps = 1000;

const char *const kTables[] = {"linux", "xnu-bsd", "xnu-mach", "xnu-mdep"};
constexpr std::size_t kNumTables = sizeof(kTables) / sizeof(kTables[0]);

struct Args
{
    std::string workload;
    Kind kind = Kind::TrapMix;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out = ".";
    std::string gitRev = "unknown";
};

/** CPU ns of the whole process (every host thread). */
std::uint64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile (p in (0,1]) of @p v (reorders it). */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    auto it = v.begin() + static_cast<long>(std::max<std::size_t>(rank, 1) - 1);
    std::nth_element(v.begin(), it, v.end());
    return *it;
}

/** The program's own counters, read around the timed phase. */
enum Ctr : std::size_t
{
    kTableCalls, ///< one per dispatch table (kTables), in order
    kDentryHits = kTableCalls + kNumTables,
    kDentryMisses,
    kCowFaults,
    kBrokenPages,
    kNetFrames,
    kNetRetransmits,
    kZoneAllocs,
    kZoneMagazineHits,
    kMachMsgs,
    kPersonaSwitches,
    kDirectSwitches, ///< setPersona calls the driver made itself
    kJitTranslations,
    kJitHits,
    kJitMisses,
    kGpuCommands,
    kGpuFragments,
    kNumCtrs,
};
using Counters = std::array<std::uint64_t, kNumCtrs>;

Counters
snapshot(Sim &sim)
{
    cider::core::CiderSystem &sys = sim.sys();
    Counters c{};
    for (std::size_t i = 0; i < kNumTables; ++i)
        c[kTableCalls + i] = sys.trapStats().tableCalls(kTables[i]);
    cider::kernel::DentryCacheStats d = sys.kernel().vfs().dentryCacheStats();
    c[kDentryHits] = d.hits;
    c[kDentryMisses] = d.misses;
    cider::kernel::VmStats vm = sys.kernel().vm().statsSnapshot();
    c[kCowFaults] = vm.cowFaults;
    c[kBrokenPages] = vm.brokenPages;
    cider::kernel::NetStats net = sys.kernel().net().stats();
    c[kNetFrames] = net.framesRouted;
    c[kNetRetransmits] = net.retransmits;
    cider::ducttape::zone_registry_each(
        [&c](const char *, const cider::ducttape::ZoneStats &z) {
            c[kZoneAllocs] += z.allocs;
            c[kZoneMagazineHits] += z.magazineHits;
        });
    c[kMachMsgs] = sys.machIpc().stats().messagesSent;
    c[kPersonaSwitches] = sys.personaManager()->personaSwitches();
    c[kDirectSwitches] = sim.directSwitches();
    cider::android::TranslationCache::Stats jit =
        sys.translationCache().statsSnapshot();
    c[kJitTranslations] = jit.translations;
    c[kJitHits] = jit.hits;
    c[kJitMisses] = jit.misses;
    cider::gpu::GpuStats gpu = sys.gpu().stats();
    c[kGpuCommands] = gpu.commands;
    c[kGpuFragments] = gpu.fragments;
    return c;
}

/** @p sum += @p after - @p before. */
void
accumulate(Counters &sum, const Counters &before, const Counters &after)
{
    for (std::size_t i = 0; i < kNumCtrs; ++i)
        sum[i] += after[i] - before[i];
}

/** One metric as reported: value, unit and the samples behind it. */
struct Metric
{
    double value = 0;
    const char *unit = "";
    std::uint64_t samples = 0;
};

/** One slice of the timed phase: a fixed share of it on the
 *  single-thread workloads, one soak on fleet. */
struct Block
{
    std::uint64_t ops = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t cpuNs = 0;
    double scaledCpuNs = 0; ///< cpuNs at the probe's nominal host speed
    bool traced = false;
};

/**
 * How much a workload's host time moves with the probe's: a stretch's
 * host times are divided by the probe's slowness around it raised to
 * this power. Fitted on the box the benchmark was tuned on (README.md,
 * "Host speed"): the trap and launch paths slow down more than the
 * probe, GL compose and the fleet as much.
 */
double
sensitivity(Kind kind)
{
    return kind == Kind::TrapMix || kind == Kind::AppLaunch ? 1.5 : 1.0;
}

/** How slow the host ran around a stretch: the mean CPU ns of the
 *  probes @p before and @p after it over kNominalNs (1 at the nominal
 *  speed, 1.3 when the probe took 30% longer). */
double
slownessBetween(double before, double after)
{
    return (before + after) / 2 / HostProbe::kNominalNs;
}

/** What the timed phase measured. */
struct Phase
{
    std::uint64_t attempted = 0;
    std::uint64_t ops = 0; ///< completed without failure
    std::uint64_t failed = 0;
    std::uint64_t wrong = 0;
    std::string firstWhy;
    std::vector<Block> blocks;
    /** The probe's slowness around every stretch, in order. */
    std::vector<double> slowness;
    /** Scaled host CPU ns per op: each latency window's p50 and p99
     *  times its ops, summed (on fleet, each untraced soak's CPU time
     *  per host thread and session, in both, with weight one). */
    double p50WeightedNs = 0, p99WeightedNs = 0;
    std::uint64_t latencySamples = 0; ///< the weights' sum
    std::uint64_t virtualNs = 0;
    std::uint64_t virtualMismatches = 0;
    std::uint64_t signalsSeen = 0;
    /** gl_frames: the last block's final scanout checksum, and the
     *  blocks whose final scanout differs from the warm-up's. */
    std::uint64_t scanout = 0;
    std::uint64_t scanoutMismatches = 0;
    /** Counter deltas over the timed phase. */
    Counters counted{};
    /// @{ Fleet report totals over the soaks.
    std::uint64_t soaks = 0;
    std::uint64_t waves = 0, steals = 0, retries = 0, deferred = 0;
    std::map<std::string, std::uint64_t> fleetOps; ///< the first soak's
    bool fleetOpsRepeat = true;
    /// @}
};

void
noteOp(Phase &ph, const OpResult &r)
{
    ++ph.attempted;
    if (r.failed)
        ++ph.failed;
    else
        ++ph.ops;
    if (r.wrong)
        ++ph.wrong;
    if ((r.failed || r.wrong) && ph.firstWhy.empty())
        ph.firstWhy = r.why;
}

OpResult
runOp(Sim &sim, Kind kind)
{
    switch (kind) {
      case Kind::TrapMix:
        return sim.trapRound();
      case Kind::AppLaunch:
        return sim.launchPair();
      default:
        return sim.glFrame();
    }
}

/** Run @p fn as one job pinned to simulated CPU 0 on a one-thread
 *  pool: the calling host thread, bound to a CPU so the per-CPU zone
 *  magazines serve it, as in the figure harnesses. */
void
pinned(Sim &sim, const std::function<std::uint64_t()> &fn)
{
    cider::kernel::ExecutorPool pool(sim.sys().kernel().percpu(), 1);
    pool.submitOn(0, fn, "hostbench");
    pool.runAll();
}

FleetOptions
fleetOptions(const Inputs &in)
{
    // fleet_soak's default shape: 1200 sessions through a 1024 cap,
    // 8 rounds each, NetBurst on, storm off.
    FleetOptions fo;
    fo.seed = in.fleetSeed;
    fo.hostThreads = kFleetHostThreads;
    fo.netBurst = true;
    fo.storm = false;
    return fo;
}

std::map<std::string, std::uint64_t>
fleetOpCounts(const FleetReport &r)
{
    std::map<std::string, std::uint64_t> ops;
    for (const auto &[name, st] : r.subsystems)
        ops[name] = st.ops;
    return ops;
}

std::string
fleetFault(const FleetReport &r, std::size_t sessions)
{
    if (r.sessionsCompleted + r.sessionsKilled + r.sessionsFailed !=
        r.sessionsStarted)
        return "fleet ledger does not balance";
    if (r.sessionsStarted != sessions || r.sessionsCompleted != sessions)
        return "fleet lost sessions (" +
               std::to_string(r.sessionsCompleted) + "/" +
               std::to_string(sessions) + " completed)";
    if (!r.auditClean)
        return "fleet leak audit: " + r.auditDetail;
    return {};
}

/** Per-set-up facts the checks compare across set-ups. */
struct Warm
{
    std::uint64_t virtualDigest = 0; ///< over every warm-up op
    std::uint64_t steadyVirtualNs = 0; ///< the last warm-up op
    std::uint64_t scanout = 0;
    std::map<std::string, std::uint64_t> fleetOps;
    std::string error;
};

/**
 * The warm-up closing each set-up: one op of each single-thread kind
 * (a smoke check of every layer, so every layer span has samples on
 * every workload), then, untraced, the workload's own op until the
 * dentry and translation caches and the zone magazines are steady. On
 * fleet that is a small soak on the system the timed soak then uses.
 */
Warm
warmUp(Sim &sim, Kind kind, const Inputs &in, Tracer *tr)
{
    Warm w;
    auto note = [&w](const OpResult &r) {
        if ((r.failed || r.wrong) && w.error.empty())
            w.error = "warm-up: " + r.why;
        w.virtualDigest = (w.virtualDigest ^ r.virtualNs) * 1099511628211ULL;
        w.steadyVirtualNs = r.virtualNs;
    };
    int own = kind == Kind::TrapMix     ? kWarmTrapRounds
              : kind == Kind::AppLaunch ? kWarmLaunchPairs
              : kind == Kind::GlFrames  ? kWarmFrames
                                        : 0;
    pinned(sim, [&] {
        for (Kind k : {Kind::TrapMix, Kind::AppLaunch, Kind::GlFrames})
            note(runOp(sim, k));
        const bool tracing = tr != nullptr && tr->enabled();
        if (tr)
            tr->setEnabled(false);
        for (int i = 0; i < own; ++i)
            note(runOp(sim, kind));
        if (tr)
            tr->setEnabled(tracing);
        return std::uint64_t{0};
    });
    if (kind == Kind::GlFrames)
        w.scanout = sim.scanoutChecksum();
    if (kind == Kind::Fleet) {
        FleetOptions fo = fleetOptions(in);
        fo.sessions = kWarmSessions;
        fo.maxActive = kWarmSessions;
        FleetSoak soak(sim.sys(), fo);
        FleetReport r = soak.run();
        std::string fault = fleetFault(r, fo.sessions);
        if (!fault.empty() && w.error.empty())
            w.error = "warm-up soak: " + fault;
        w.fleetOps = fleetOpCounts(r);
    }
    return w;
}

/** Times each set-up (process CPU and wall): a fresh system booted,
 *  the apps installed, the session app launched, then warmed up; the
 *  host probe runs before and after it. */
struct SetUps
{
    const Inputs &in;
    Kind kind;
    Tracer *tr;
    HostProbe &probe;
    std::vector<double> seconds; ///< CPU s at the nominal host speed
    std::vector<double> cpuSeconds;
    std::vector<double> wallSeconds;
    std::vector<Warm> warms;

    /** The next set-up system; the caller checks its setupError(). */
    std::unique_ptr<Sim>
    next()
    {
        const double before = probe.measure();
        const std::uint64_t w0 = hostNowNs();
        const std::uint64_t c0 = cpuNs();
        auto sim = std::make_unique<Sim>(in, tr);
        if (sim->setupError().empty()) {
            warms.push_back(warmUp(*sim, kind, in, tr));
            const double cpu = static_cast<double>(cpuNs() - c0) / 1e9;
            wallSeconds.push_back(static_cast<double>(hostNowNs() - w0) /
                                  1e9);
            cpuSeconds.push_back(cpu);
            seconds.push_back(
                cpu / std::pow(slownessBetween(before, probe.measure()),
                               sensitivity(kind)));
        }
        return sim;
    }
};

/**
 * Starts and closes the blocks of the timed phase and the stretches of
 * ops within them, timing the host probe between stretches. A traced
 * run alternates untraced and traced blocks, so the tracing overhead
 * is measured at the same box speed; an untraced run never traces.
 */
class Blocks
{
  public:
    Blocks(Phase &ph, Tracer *tr, HostProbe &probe, double sensitivity)
        : ph_(ph), tr_(tr), probe_(probe), sensitivity_(sensitivity)
    {
    }

    /** Start a block with the probe before its first stretch. */
    void
    open()
    {
        cur_ = Block{};
        cur_.traced = tr_ != nullptr && !lastTraced_;
        lastTraced_ = cur_.traced;
        if (tr_)
            tr_->setEnabled(cur_.traced);
        before_ = probe_.measure();
    }

    /**
     * Close a stretch: @p ops ops completed in @p wallNs and @p cpuNs
     * (process CPU); @p latencies holds each op's thread-CPU ns
     * (emptied here). Times the probe after it and divides the
     * stretch's CPU times by the slowness around it to the workload's
     * sensitivity, which it returns; untraced latencies fill the
     * latency windows, which run on across stretches and blocks.
     */
    double
    stretch(std::uint64_t ops, std::uint64_t wallNs, std::uint64_t cpuNs,
            std::vector<std::uint64_t> &latencies)
    {
        const double after = probe_.measure();
        const double slowness = slownessBetween(before_, after);
        const double scale = std::pow(slowness, sensitivity_);
        before_ = after;
        cur_.ops += ops;
        cur_.wallNs += wallNs;
        cur_.cpuNs += cpuNs;
        cur_.scaledCpuNs += static_cast<double>(cpuNs) / scale;
        ph_.slowness.push_back(slowness);
        if (!cur_.traced)
            for (std::uint64_t ns : latencies) {
                window_.push_back(static_cast<double>(ns) / scale);
                if (window_.size() == kWindowOps)
                    closeWindow();
            }
        latencies.clear();
        return scale;
    }

    /** Close the last, partial latency window. */
    void
    finish()
    {
        if (!window_.empty())
            closeWindow();
    }

    void
    close()
    {
        ph_.blocks.push_back(cur_);
        if (tr_)
            tr_->setEnabled(true); // later set-up spans, if any
    }

    bool traced() const { return cur_.traced; }

  private:
    void
    closeWindow()
    {
        const auto n = static_cast<double>(window_.size());
        ph_.p50WeightedNs += n * percentile(window_, 0.50);
        ph_.p99WeightedNs += n * percentile(window_, 0.99);
        ph_.latencySamples += window_.size();
        window_.clear();
    }

    Phase &ph_;
    Tracer *tr_;
    HostProbe &probe_;
    const double sensitivity_;
    Block cur_;
    double before_ = 0;
    std::vector<double> window_;
    bool lastTraced_ = true;
};

/** One single-thread block on @p sim: the workload's op in a closed
 *  loop for @p blockNs of host time, in stretches of kStretchNs. An
 *  op's latency is the thread CPU time between the ends of it and the
 *  op before. */
void
singleBlock(Sim &sim, Kind kind, std::uint64_t blockNs,
            std::uint64_t steadyNs, Tracer *tr, Phase &ph, Blocks &blocks)
{
    pinned(sim, [&] {
        blocks.open();
        std::vector<std::uint64_t> latencies;
        for (std::uint64_t spent = 0; spent < blockNs;) {
            const std::uint64_t len = std::min(kStretchNs, blockNs - spent);
            const std::uint64_t t0 = hostNowNs();
            const std::uint64_t c0 = cpuNs();
            std::uint64_t ops = 0;
            std::uint64_t a = threadCpuNs();
            for (;;) {
                const std::uint64_t now = hostNowNs();
                if (now - t0 >= len) {
                    blocks.stretch(ops, now - t0, cpuNs() - c0, latencies);
                    spent += now - t0;
                    break;
                }
                if (tr)
                    tr->setOp(static_cast<std::uint32_t>(ph.attempted));
                OpResult r;
                {
                    Scope s(tr, Layer::Op);
                    r = runOp(sim, kind);
                }
                const std::uint64_t b = threadCpuNs();
                noteOp(ph, r);
                if (!r.failed)
                    ++ops;
                latencies.push_back(b - a);
                a = b;
                ph.virtualNs += r.virtualNs;
                if (r.virtualNs != steadyNs)
                    ++ph.virtualMismatches;
            }
        }
        blocks.close();
        return std::uint64_t{0};
    });
}

/** One fleet block on @p sim: a whole soak, one stretch. */
void
soakBlock(Sim &sim, const FleetOptions &fo, Phase &ph, Blocks &blocks)
{
    FleetSoak soak(sim.sys(), fo);
    blocks.open();
    const std::uint64_t a = hostNowNs();
    const std::uint64_t c = cpuNs();
    FleetReport r = soak.run();
    const std::uint64_t b = hostNowNs();
    const std::uint64_t cpu = cpuNs() - c;
    std::vector<std::uint64_t> none;
    const double scale =
        blocks.stretch(r.sessionsCompleted, b - a, cpu, none);
    if (r.sessionsCompleted > 0 && !blocks.traced()) {
        const double perSession = static_cast<double>(cpu) / scale /
                                  kFleetHostThreads /
                                  static_cast<double>(r.sessionsCompleted);
        ph.p50WeightedNs += perSession;
        ph.p99WeightedNs += perSession;
        ++ph.latencySamples;
    }
    blocks.close();
    ++ph.soaks;
    ph.attempted += r.sessionsStarted;
    ph.ops += r.sessionsCompleted;
    ph.failed += r.sessionsStarted - r.sessionsCompleted;
    std::string fault = fleetFault(r, fo.sessions);
    if (!fault.empty()) {
        ++ph.wrong;
        if (ph.firstWhy.empty())
            ph.firstWhy = fault;
    }
    std::map<std::string, std::uint64_t> ops = fleetOpCounts(r);
    if (ph.soaks == 1)
        ph.fleetOps = ops;
    else if (ops != ph.fleetOps)
        ph.fleetOpsRepeat = false;
    ph.waves += r.waves;
    ph.steals += r.steals;
    ph.retries += r.retriesTransient;
    ph.deferred += r.admissionDeferred;
    ph.virtualNs += r.virtualDurationNs;
}

/**
 * The timed phase: blocks until they add up to @p seconds, each on a
 * freshly set-up system. A single-thread block is a tenth of the
 * phase; a fleet block is one soak (a system that ran a full soak
 * keeps its GL surface buffers, about 1900 per soak, so a later soak
 * on it would run slower and fatter). The set-ups sit between blocks,
 * outside their timing, so setup_s samples the box across the run.
 */
Phase
timed(SetUps &setups, double seconds, Tracer *tr)
{
    Phase ph;
    Blocks blocks(ph, tr, setups.probe, sensitivity(setups.kind));
    const FleetOptions fo = fleetOptions(setups.in);
    const bool fleet = setups.kind == Kind::Fleet;
    const bool gl = setups.kind == Kind::GlFrames;
    const auto blockNs = static_cast<std::uint64_t>(seconds * 1e9) / kBlocks;
    const std::uint64_t phaseNs = blockNs * kBlocks;
    std::uint64_t timedNs = 0;
    while (timedNs < phaseNs) {
        std::unique_ptr<Sim> sim = setups.next();
        if (!sim->setupError().empty()) {
            ++ph.wrong;
            ph.firstWhy = sim->setupError();
            break;
        }
        const Counters before = snapshot(*sim);
        if (fleet)
            soakBlock(*sim, fo, ph, blocks);
        else
            singleBlock(*sim, setups.kind, blockNs,
                        setups.warms.front().steadyVirtualNs, tr, ph,
                        blocks);
        accumulate(ph.counted, before, snapshot(*sim));
        timedNs += ph.blocks.back().wallNs;
        ph.signalsSeen += sim->signalsSeen();
        if (gl) {
            ph.scanout = sim->scanoutChecksum();
            if (ph.scanout != setups.warms.front().scanout)
                ++ph.scanoutMismatches;
        }
    }
    blocks.finish();
    return ph;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** The traced (or untraced) blocks summed. */
Block
totals(const Phase &ph, bool traced)
{
    Block sum;
    for (const Block &b : ph.blocks)
        if (b.traced == traced) {
            sum.ops += b.ops;
            sum.wallNs += b.wallNs;
            sum.cpuNs += b.cpuNs;
            sum.scaledCpuNs += b.scaledCpuNs;
        }
    return sum;
}

double
perOpNs(const Block &b)
{
    return ratio(b.scaledCpuNs, static_cast<double>(b.ops));
}

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<std::pair<std::string, Metric>> &ms,
            bool withSamples)
{
    std::string s = "{";
    for (const auto &[name, m] : ms) {
        if (s.size() > 1)
            s += ", ";
        s += quoted(name) + ": {\"value\": " + fmt(m.value) +
             ", \"unit\": " + quoted(m.unit);
        if (withSamples)
            s += ", \"samples\": " + std::to_string(m.samples);
        s += "}";
    }
    return s + "}";
}

std::string
list(const std::vector<double> &v)
{
    std::string s = "[";
    for (double x : v)
        s += (s.size() > 1 ? ", " : "") + fmt(x);
    return s + "]";
}

/** [ops, wall ns, cpu ns, traced] per block. */
std::string
blockList(const Phase &ph)
{
    std::string s = "[";
    for (const Block &b : ph.blocks)
        s += (s.size() > 1 ? ", [" : "[") + std::to_string(b.ops) + ", " +
             std::to_string(b.wallNs) + ", " + std::to_string(b.cpuNs) +
             ", " + (b.traced ? "1" : "0") + "]";
    return s + "]";
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    std::map<std::string, std::string> kv;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return false;
        kv[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0 || !kv.count("workload") || !kv.count("seed") ||
        !kv.count("seconds") || !kv.count("trace"))
        return false;
    a->workload = kv["workload"];
    static const std::map<std::string, Kind> kinds = {
        {"trap_mix", Kind::TrapMix},
        {"app_launch", Kind::AppLaunch},
        {"gl_frames", Kind::GlFrames},
        {"fleet", Kind::Fleet},
    };
    auto it = kinds.find(a->workload);
    if (it == kinds.end())
        return false;
    a->kind = it->second;
    char *end = nullptr;
    a->seed = std::strtoull(kv["seed"].c_str(), &end, 10);
    if (*end != '\0')
        return false;
    a->seconds = std::strtod(kv["seconds"].c_str(), &end);
    if (*end != '\0' || !(a->seconds > 0 && a->seconds <= 120))
        return false;
    if (kv["trace"] != "0" && kv["trace"] != "1")
        return false;
    a->trace = kv["trace"] == "1";
    if (kv.count("out"))
        a->out = kv["out"];
    if (kv.count("git-rev"))
        a->gitRev = kv["git-rev"];
    return true;
}

using Metrics = std::vector<std::pair<std::string, Metric>>;

/** Every check the run makes on the program's outputs; empty = pass. */
std::vector<std::string>
outputFaults(const std::vector<Warm> &warms, const Phase &ph)
{
    std::vector<std::string> faults;
    const Warm &w0 = warms.front();
    for (const Warm &w : warms) {
        if (!w.error.empty())
            faults.push_back(w.error);
        if (w.virtualDigest != w0.virtualDigest ||
            w.steadyVirtualNs != w0.steadyVirtualNs)
            faults.push_back("warm-up virtual ns differ across set-ups");
        if (w.scanout != w0.scanout)
            faults.push_back("warm-up scanout differs across set-ups");
        if (w.fleetOps != w0.fleetOps)
            faults.push_back("warm-up fleet op counts differ");
    }
    if (ph.failed > 0)
        faults.push_back(std::to_string(ph.failed) +
                         " ops failed: " + ph.firstWhy);
    if (ph.wrong > 0)
        faults.push_back("wrong output: " + ph.firstWhy);
    if (ph.virtualMismatches > 0)
        faults.push_back(std::to_string(ph.virtualMismatches) +
                         " ops left the steady virtual ns per op");
    if (ph.scanoutMismatches > 0)
        faults.push_back(std::to_string(ph.scanoutMismatches) +
                         " blocks ended on another scanout than warm-up");
    if (!ph.fleetOpsRepeat)
        faults.push_back("fleet per-subsystem op counts differ across soaks");
    if (ph.attempted == 0)
        faults.push_back("no op completed in the timed phase");
    return faults;
}

/**
 * The end-to-end metrics. Host time is CPU time, which leaves out the
 * time the hypervisor gives other guests, scaled to the probe's
 * nominal host speed; rates and CPU are means over the untraced phase,
 * latency a mean over windows (kWindowOps). ops_per_s counts ops per
 * second of one host thread's CPU time.
 */
Metrics
endToEnd(const Phase &ph, const SetUps &setups)
{
    const double samples = static_cast<double>(ph.latencySamples);
    const double p50 = ratio(ph.p50WeightedNs, samples);
    const double p99 = ratio(ph.p99WeightedNs, samples);
    const Block all = totals(ph, false);
    const double ops = static_cast<double>(all.ops);
    const double threadNs = all.scaledCpuNs / hostThreads(setups.kind);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"setup_s", {median(setups.seconds), "s", setups.seconds.size()}},
        {"ops_per_s", {ratio(ops * 1e9, threadNs), "1/s", all.ops}},
        {"op_p50_us", {p50 / 1e3, "us", ph.latencySamples}},
        {"op_p99_us", {p99 / 1e3, "us", ph.latencySamples}},
        {"cpu_us_per_op",
         {ratio(all.scaledCpuNs / 1e3, ops), "us", all.ops}},
        {"peak_rss_mb",
         {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1}},
    };
}

/** The host's speed over the run, and the untraced figures unscaled
 *  and in wall time. */
Metrics
asMeasured(const Phase &ph, const SetUps &setups)
{
    const Block all = totals(ph, false);
    const double ops = static_cast<double>(all.ops);
    const auto stretches = static_cast<std::uint64_t>(ph.slowness.size());
    const auto [lo, hi] =
        std::minmax_element(ph.slowness.begin(), ph.slowness.end());
    const auto sets = static_cast<std::uint64_t>(setups.cpuSeconds.size());
    return {
        {"slowness_median", {median(ph.slowness), "ratio", stretches}},
        {"slowness_min", {stretches ? *lo : 0, "ratio", stretches}},
        {"slowness_max", {stretches ? *hi : 0, "ratio", stretches}},
        {"setup_s", {median(setups.cpuSeconds), "s", sets}},
        {"setup_wall_s", {median(setups.wallSeconds), "s", sets}},
        {"ops_per_s",
         {ratio(ops * 1e9 * hostThreads(setups.kind),
                static_cast<double>(all.cpuNs)),
          "1/s", all.ops}},
        {"ops_per_wall_s",
         {ratio(ops * 1e9, static_cast<double>(all.wallNs)), "1/s",
          all.ops}},
        {"cpu_us_per_op",
         {ratio(static_cast<double>(all.cpuNs) / 1e3, ops), "us", all.ops}},
    };
}

Metrics
perLayer(const Phase &ph, const Tracer &tracer)
{
    const double ops = static_cast<double>(std::max<std::uint64_t>(ph.ops, 1));
    const Counters &c = ph.counted;
    auto d = [&c](Ctr k) { return static_cast<double>(c[k]); };
    auto perOp = [&](Ctr k) { return Metric{d(k) / ops, "count", ph.ops}; };
    auto span = [&tracer](Layer l) {
        const LayerTime &t = tracer.layers()[static_cast<std::size_t>(l)];
        return Metric{ratio(static_cast<double>(t.selfNs),
                            static_cast<double>(t.calls)),
                      "ns", t.calls};
    };
    auto hitRatio = [&](Ctr hits, double total) {
        return Metric{ratio(d(hits), total), "ratio",
                      static_cast<std::uint64_t>(total)};
    };
    const double soaks = static_cast<double>(ph.soaks);
    // Every diplomat call is a persona round trip; the driver's own
    // set_persona round trips (trap_mix) are not diplomat calls.
    const double diplomatCalls =
        (d(kPersonaSwitches) - d(kDirectSwitches)) / 2;
    Metrics m = {{"kernel.trap_ns", span(Layer::Trap)}};
    for (std::size_t i = 0; i < kNumTables; ++i)
        m.push_back({std::string("kernel.traps_per_op.") + kTables[i],
                     perOp(static_cast<Ctr>(kTableCalls + i))});
    const Metrics rest = {
        {"kernel.vfs_ns", span(Layer::Vfs)},
        {"kernel.vfs.dentry_hit_ratio",
         hitRatio(kDentryHits, d(kDentryHits) + d(kDentryMisses))},
        {"kernel.vm_ns", span(Layer::Vm)},
        {"kernel.vm.cow_faults_per_op", perOp(kCowFaults)},
        {"kernel.vm.broken_pages_per_op", perOp(kBrokenPages)},
        {"kernel.fork_ns", span(Layer::Fork)},
        {"kernel.exit_reap_ns", span(Layer::ExitReap)},
        {"kernel.net_ns", span(Layer::Net)},
        {"kernel.net.frames_per_op", perOp(kNetFrames)},
        {"kernel.net.retransmits_per_op", perOp(kNetRetransmits)},
        {"kernel.percpu.steals_per_wave",
         {ratio(static_cast<double>(ph.steals),
                static_cast<double>(ph.waves)),
          "count", ph.waves}},
        {"core.fleet.waves",
         {ratio(static_cast<double>(ph.waves), soaks), "count", ph.soaks}},
        {"ducttape.zone.allocs_per_op", perOp(kZoneAllocs)},
        {"ducttape.zone.magazine_hit_ratio",
         hitRatio(kZoneMagazineHits, d(kZoneAllocs))},
        {"xnu.mach_msg_ns", span(Layer::MachMsg)},
        {"xnu.mach_msg_ool_ns", span(Layer::MachMsgOol)},
        {"xnu.psynch_ns", span(Layer::Psynch)},
        {"xnu.msgs_per_op", perOp(kMachMsgs)},
        {"persona.switch_ns", span(Layer::PersonaSwitch)},
        {"persona.switches_per_op", perOp(kPersonaSwitches)},
        {"binfmt.exec_load_ns", span(Layer::ExecLoad)},
        {"ios.dyld_bootstrap_ns", span(Layer::DyldBootstrap)},
        {"android.dalvik_run_ns", span(Layer::DalvikRun)},
        {"android.dexjit.translations_per_op", perOp(kJitTranslations)},
        {"android.dexjit.hit_ratio",
         hitRatio(kJitHits, d(kJitHits) + d(kJitMisses))},
        {"diplomat.gl_call_ns", span(Layer::GlCall)},
        {"diplomat.calls_per_op", {diplomatCalls / ops, "count", ph.ops}},
        {"android.present_ns", span(Layer::Present)},
        {"gpu.commands_per_op", perOp(kGpuCommands)},
        {"gpu.fragments_per_op", perOp(kGpuFragments)},
        {"core.fleet.retries_per_op",
         {static_cast<double>(ph.retries) / ops, "count", ph.ops}},
        {"core.fleet.admission_deferred",
         {ratio(static_cast<double>(ph.deferred), soaks), "count",
          ph.soaks}},
        {"core.fleet.virtual_ms",
         {ratio(static_cast<double>(ph.virtualNs) / 1e6, soaks),
          "ms-virtual", ph.soaks}},
        {"virtual_us_per_op",
         {static_cast<double>(ph.virtualNs) / ops / 1e3, "us-virtual",
          ph.ops}},
        {"trace.overhead_pct",
         {(ratio(perOpNs(totals(ph, true)), perOpNs(totals(ph, false))) -
           1) * 100,
          "%", ph.blocks.size()}},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

int
run(const Args &args)
{
    cider::setLogQuiet(true);
    const Inputs in = makeInputs(args.seed);
    Tracer tracer;
    Tracer *tr = args.trace ? &tracer : nullptr;
    tracer.setEnabled(args.trace);

    HostProbe probe;
    SetUps setups{in, args.kind, tr, probe, {}, {}, {}, {}};
    const Phase ph = timed(setups, args.seconds, tr);
    if (setups.warms.empty()) {
        std::fprintf(stderr, "hostbench: %s\n", ph.firstWhy.c_str());
        return 1;
    }
    const Warm &w0 = setups.warms.front();

    const std::vector<std::string> faults = outputFaults(setups.warms, ph);
    const Metrics e2e = endToEnd(ph, setups);
    const Metrics layers = perLayer(ph, tracer);

    std::string checks = "{\"faults\": [";
    for (std::size_t i = 0; i < faults.size(); ++i)
        checks += (i ? ", " : "") + quoted(faults[i]);
    checks += "], \"steady_virtual_ns_per_op\": " +
              std::to_string(w0.steadyVirtualNs) +
              ", \"warmup_virtual_digest\": " +
              std::to_string(w0.virtualDigest) +
              ", \"scanout_checksum\": " + std::to_string(ph.scanout) +
              ", \"signals_seen\": " + std::to_string(ph.signalsSeen) + "}";
    const std::string report =
        "{\"hostbench\": {\"workload\": " + quoted(args.workload) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"seconds\": " + fmt(args.seconds) +
        ", \"trace\": " + (args.trace ? "1" : "0") +
        ", \"build_type\": " + quoted(HOSTBENCH_BUILD_TYPE) +
        ", \"git_rev\": " + quoted(args.gitRev) +
        ", \"host_cores\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"host_threads\": " +
        std::to_string(hostThreads(args.kind)) +
        ", \"attempted\": " + std::to_string(ph.attempted) +
        ", \"failed\": " + std::to_string(ph.failed) +
        ", \"spans\": " + std::to_string(tracer.recorded()) +
        ", \"setup_s\": " + list(setups.seconds) +
        ", \"blocks\": " + blockList(ph) + ", \"checks\": " + checks +
        ", \"end_to_end\": " + metricsJson(e2e, true) +
        ", \"as_measured\": " + metricsJson(asMeasured(ph, setups), true) +
        ", \"per_layer\": " + metricsJson(layers, true) + "}}";

    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    if (std::FILE *f = std::fopen((stem + ".json").c_str(), "w")) {
        std::fprintf(f, "%s\n", report.c_str());
        std::fclose(f);
    }
    if (args.trace && !tracer.write(stem + ".spans.tsv"))
        std::fprintf(stderr, "hostbench: cannot write %s.spans.tsv\n",
                     stem.c_str());
    for (const std::string &f : faults)
        std::fprintf(stderr, "hostbench: FAIL: %s\n", f.c_str());

    std::printf("%s\n", report.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                faults.empty() ? "true" : "false",
                static_cast<unsigned long long>(ph.attempted),
                static_cast<unsigned long long>(ph.failed),
                metricsJson(args.trace ? layers : e2e, false).c_str());
    return 0;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    hostbench::Args args;
    if (!hostbench::parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: hostbench --workload "
                     "trap_mix|app_launch|gl_frames|fleet --seed N "
                     "--seconds S --trace 0|1 [--out DIR] "
                     "[--git-rev R]\n");
        return 2;
    }
    return hostbench::run(args);
}
