/**
 * @file
 * FleetSoak driver: the "millions of users" robustness gate
 * (DESIGN.md §14, ROADMAP item 4). Three phases on fresh systems:
 *
 *  1. scale  — churn N sessions (default 1200, peaking above 1000
 *     concurrent) through the ExecutorPool with admission control,
 *     then hold the per-subsystem p50/p99 + throughput numbers to the
 *     SLO gate profile and the leak audit to zero drift;
 *  2. storm  — the same fleet under composed FaultRail probability
 *     storms, driver kill storms, and the OOM killer: graceful
 *     degradation (retries, watchdog escalation, error exits) with a
 *     still-clean leak audit and no aborts;
 *  3. rail   — seeded SchedRail random sweeps of a small guest fleet,
 *     composed with the fault storm; each seed is run twice on fresh
 *     systems and must produce a bit-identical virtual-time series.
 *
 * Results land in BENCH_fleet.json (BenchJson schema); failure traces
 * and SLO violations land in BENCH_fleet_traces.txt for CI upload.
 *
 * CLI: --sessions=N --max-active=N --seed=N --duration=ROUNDS
 *      --storm=0|1 --net=0|1 --rail-guests=N --slo-scale=X
 * Env (CLI wins): CIDER_FLEET_SESSIONS, CIDER_FLEET_MAX_ACTIVE,
 *      CIDER_FLEET_SEED, CIDER_FLEET_DURATION, CIDER_FLEET_STORM,
 *      CIDER_FLEET_NET (NetBurst in the session mix),
 *      CIDER_FLEET_RAIL_GUESTS, CIDER_FLEET_SLO_SCALE,
 *      CIDER_FLEET_SLO=0 (report SLOs without enforcing).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_json.h"
#include "core/cider_system.h"
#include "core/fleet.h"

namespace cider::bench {
namespace {

using core::CiderSystem;
using core::FleetOptions;
using core::FleetReport;
using core::FleetSoak;
using core::SystemConfig;
using core::SystemOptions;

int g_failures = 0;
std::vector<std::string> g_traces;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        g_traces.push_back("FAIL: " + what);
        std::fprintf(stderr, "fleet_soak: FAIL: %s\n", what.c_str());
    }
}

struct Cli
{
    std::size_t sessions = 1200;
    std::size_t maxActive = 1024;
    std::uint64_t seed = 1;
    int duration = 8; ///< foreground rounds per session
    bool storm = true;
    bool net = false; ///< NetBurst segment in the session mix
    std::size_t railGuests = 6;
    double sloScale = 1.0;
    bool sloEnforce = true;
};

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtoull(v, nullptr, 10) : fallback;
}

double
envF64(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtod(v, nullptr) : fallback;
}

Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    cli.sessions = envU64("CIDER_FLEET_SESSIONS", cli.sessions);
    cli.maxActive = envU64("CIDER_FLEET_MAX_ACTIVE", cli.maxActive);
    cli.seed = envU64("CIDER_FLEET_SEED", cli.seed);
    cli.duration = static_cast<int>(
        envU64("CIDER_FLEET_DURATION",
               static_cast<std::uint64_t>(cli.duration)));
    cli.storm = envU64("CIDER_FLEET_STORM", cli.storm ? 1 : 0) != 0;
    cli.net = envU64("CIDER_FLEET_NET", cli.net ? 1 : 0) != 0;
    cli.railGuests = envU64("CIDER_FLEET_RAIL_GUESTS", cli.railGuests);
    cli.sloScale = envF64("CIDER_FLEET_SLO_SCALE", cli.sloScale);
    cli.sloEnforce = envU64("CIDER_FLEET_SLO", 1) != 0;

    auto arg = [](const char *a, const char *key) -> const char * {
        std::size_t n = std::strlen(key);
        if (std::strncmp(a, key, n) == 0 && a[n] == '=')
            return a + n + 1;
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (const char *v = arg(argv[i], "--sessions"))
            cli.sessions = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg(argv[i], "--max-active"))
            cli.maxActive = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg(argv[i], "--seed"))
            cli.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg(argv[i], "--duration"))
            cli.duration = std::atoi(v);
        else if (const char *v = arg(argv[i], "--storm"))
            cli.storm = std::atoi(v) != 0;
        else if (const char *v = arg(argv[i], "--net"))
            cli.net = std::atoi(v) != 0;
        else if (const char *v = arg(argv[i], "--rail-guests"))
            cli.railGuests = std::strtoull(v, nullptr, 10);
        else if (const char *v = arg(argv[i], "--slo-scale"))
            cli.sloScale = std::strtod(v, nullptr);
        else
            std::fprintf(stderr, "fleet_soak: ignoring arg %s\n",
                         argv[i]);
    }
    if (cli.sessions == 0)
        cli.sessions = 1;
    if (cli.maxActive == 0)
        cli.maxActive = cli.sessions;
    if (cli.duration < 1)
        cli.duration = 1;
    return cli;
}

FleetOptions
baseOptions(const Cli &cli)
{
    FleetOptions opts;
    opts.sessions = cli.sessions;
    opts.maxActive = cli.maxActive;
    opts.seed = cli.seed;
    opts.rounds = cli.duration;
    opts.netBurst = cli.net;
    return opts;
}

/** A fresh fully-Cider system (the fleet mixes both personas). */
SystemOptions
sysOptions()
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    return opts;
}

void
foldTraces(const FleetReport &report, const char *phase)
{
    for (const std::string &t : report.failureTraces)
        g_traces.push_back(std::string(phase) + ": " + t);
}

void
addSubsystemMetrics(BenchJson &json, const FleetReport &report)
{
    for (const auto &[name, st] : report.subsystems) {
        json.metric(name + "_ops", static_cast<double>(st.ops));
        json.metric(name + "_p50_ns", static_cast<double>(st.p50()));
        json.metric(name + "_p99_ns", static_cast<double>(st.p99()));
        json.metric(name + "_ops_per_vsec",
                    report.opsPerVirtualSec(name));
    }
}

void
addLedgerMetrics(BenchJson &json, const FleetReport &report)
{
    json.metric("sessions", static_cast<double>(report.sessionsStarted));
    json.metric("completed", static_cast<double>(report.sessionsCompleted));
    json.metric("killed", static_cast<double>(report.sessionsKilled));
    json.metric("failed", static_cast<double>(report.sessionsFailed));
    json.metric("peak_live", static_cast<double>(report.peakLive));
    json.metric("waves", static_cast<double>(report.waves));
    json.metric("steals", static_cast<double>(report.steals));
    json.metric("admission_deferred",
                static_cast<double>(report.admissionDeferred));
    json.metric("retries_transient",
                static_cast<double>(report.retriesTransient));
    json.metric("retries_exhausted",
                static_cast<double>(report.retriesExhausted));
    json.metric("permanent_errors",
                static_cast<double>(report.permanentErrors));
    json.metric("watchdog_warnings",
                static_cast<double>(report.watchdogWarnings));
    json.metric("watchdog_kills",
                static_cast<double>(report.watchdogKills));
    json.metric("fault_trips", static_cast<double>(report.faultTrips));
    json.metric("audit_clean", report.auditClean ? 1 : 0);
}

void
scalePhase(const Cli &cli, BenchJson &json)
{
    std::printf("fleet_soak: scale phase (%zu sessions, cap %zu)\n",
                cli.sessions, cli.maxActive);
    CiderSystem sys(sysOptions());
    FleetSoak soak(sys, baseOptions(cli));
    FleetReport report = soak.run();
    foldTraces(report, "scale");

    check(report.sessionsStarted == cli.sessions,
          "scale: not every session was started");
    check(report.sessionsCompleted + report.sessionsKilled +
                  report.sessionsFailed ==
              report.sessionsStarted,
          "scale: session ledger does not balance");
    check(report.sessionsCompleted == cli.sessions,
          "scale: clean run lost sessions (" +
              std::to_string(report.sessionsCompleted) + "/" +
              std::to_string(cli.sessions) + " completed)");
    std::size_t expectPeak = std::min(cli.sessions, cli.maxActive);
    check(report.peakLive == expectPeak,
          "scale: peak concurrency " + std::to_string(report.peakLive) +
              " != admission target " + std::to_string(expectPeak));
    check(report.auditClean,
          "scale: leak audit dirty: " + report.auditDetail);

    std::vector<std::string> violations;
    bool slos = core::evaluateSlos(
        report, core::defaultSloGates(cli.sloScale, cli.net),
        &violations);
    for (const std::string &v : violations) {
        g_traces.push_back("scale SLO: " + v);
        std::fprintf(stderr, "fleet_soak: SLO violation: %s\n",
                     v.c_str());
    }
    if (cli.sloEnforce)
        check(slos, "scale: SLO gates failed (" +
                        std::to_string(violations.size()) +
                        " violation(s))");

    json.add("scale", static_cast<double>(report.virtualDurationNs),
             report.hostMs * 1e6);
    addLedgerMetrics(json, report);
    addSubsystemMetrics(json, report);
    json.metric("slo_ok", slos ? 1 : 0);

    std::printf("%s", soak.procText().c_str());
}

void
stormPhase(const Cli &cli, BenchJson &json)
{
    std::printf("fleet_soak: storm phase (composed fault + kill "
                "storms)\n");
    CiderSystem sys(sysOptions());
    FleetOptions opts = baseOptions(cli);
    opts.storm = true;
    FleetSoak soak(sys, opts);
    FleetReport report = soak.run();
    foldTraces(report, "storm");

    check(report.sessionsStarted == cli.sessions,
          "storm: not every session was started");
    check(report.sessionsCompleted + report.sessionsKilled +
                  report.sessionsFailed ==
              report.sessionsStarted,
          "storm: session ledger does not balance");
    check(report.faultTrips > 0, "storm: no faults tripped at all");
    // Graceful degradation, not graceful avoidance: sessions may be
    // killed or fail, but the machine itself returns to baseline.
    check(report.auditClean,
          "storm: leak audit dirty: " + report.auditDetail);

    json.add("storm", static_cast<double>(report.virtualDurationNs),
             report.hostMs * 1e6);
    addLedgerMetrics(json, report);
    addSubsystemMetrics(json, report);
}

void
railPhase(const Cli &cli, BenchJson &json)
{
    std::vector<std::uint64_t> seeds = {cli.seed * 11 + 1,
                                        cli.seed * 11 + 2,
                                        cli.seed * 11 + 3};
    for (std::uint64_t seed : seeds) {
        std::printf("fleet_soak: rail sweep (seed %" PRIu64 ", %zu "
                    "guests)\n",
                    seed, cli.railGuests);
        FleetOptions opts = baseOptions(cli);
        opts.storm = cli.storm; // compose the fault storm with the rail
        FleetReport a, b;
        {
            CiderSystem sys(sysOptions());
            FleetSoak soak(sys, opts);
            a = soak.runRailed(seed, cli.railGuests);
        }
        {
            CiderSystem sys(sysOptions());
            FleetSoak soak(sys, opts);
            b = soak.runRailed(seed, cli.railGuests);
        }
        foldTraces(a, "rail");

        std::string tag = "rail seed " + std::to_string(seed);
        check(a.railCompleted && !a.railDeadlocked,
              tag + ": rail episode did not complete");
        check(a.auditClean, tag + ": leak audit dirty: " + a.auditDetail);
        check(a.railSeries == b.railSeries,
              tag + ": virtual-time series diverged between two "
                    "same-seed runs");
        check(!a.railSeries.empty() && a.virtualDurationNs > 0,
              tag + ": guests consumed no virtual time");

        json.add("rail_" + std::to_string(seed),
                 static_cast<double>(a.virtualDurationNs),
                 a.hostMs * 1e6);
        json.metric("guests", static_cast<double>(a.railSeries.size()));
        json.metric("decisions", static_cast<double>(a.waves));
        json.metric("fault_trips", static_cast<double>(a.faultTrips));
        json.metric("completed", a.railCompleted ? 1 : 0);
        json.metric("deterministic", a.railSeries == b.railSeries ? 1 : 0);
        json.metric("audit_clean", a.auditClean ? 1 : 0);
    }
}

int
fleetMain(int argc, char **argv)
{
    setLogQuiet(true); // storm phases are loud by design
    Cli cli = parseCli(argc, argv);

    BenchJson json("fleet");
    scalePhase(cli, json);
    if (cli.storm)
        stormPhase(cli, json);
    railPhase(cli, json);
    json.write();

    std::ofstream traces("BENCH_fleet_traces.txt");
    traces << "fleet_soak traces (" << g_failures << " failure(s))\n";
    for (const std::string &t : g_traces)
        traces << t << "\n";
    traces.close();

    if (g_failures != 0) {
        std::fprintf(stderr, "fleet_soak: %d failure(s)\n", g_failures);
        return 1;
    }
    std::puts("fleet_soak: OK");
    return 0;
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    return cider::bench::fleetMain(argc, argv);
}
