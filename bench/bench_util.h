/**
 * @file
 * Shared benchmark harness for the Figure 5 / Figure 6 reproductions.
 *
 * Every bench binary follows the paper's method: run a workload on
 * each system configuration (Vanilla Android, Cider/Android-binary,
 * Cider/iOS-binary, iPad mini), collect deterministic virtual-time
 * results, report them through google-benchmark (manual time), and
 * print the normalised table exactly the way the paper's figures are
 * normalised — against Vanilla Android (or a stated stand-in baseline
 * for rows vanilla cannot run).
 */

#ifndef CIDER_BENCH_BENCH_UTIL_H
#define CIDER_BENCH_BENCH_UTIL_H

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/logging.h"
#include "bench_json.h"
#include "core/cider_system.h"
#include "kernel/percpu.h"

namespace cider::bench {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

inline const std::vector<SystemConfig> kAllConfigs = {
    SystemConfig::VanillaAndroid,
    SystemConfig::CiderAndroid,
    SystemConfig::CiderIos,
    SystemConfig::IPadMini,
};

/** One figure group: rows x configs of raw measurements. */
class ResultTable
{
  public:
    ResultTable(std::string title, std::string unit,
                bool higher_is_better)
        : title_(std::move(title)), unit_(std::move(unit)),
          higherIsBetter_(higher_is_better)
    {}

    void
    set(const std::string &row, SystemConfig config, double value)
    {
        if (std::find(rows_.begin(), rows_.end(), row) == rows_.end())
            rows_.push_back(row);
        values_[{row, config}] = value;
    }

    void
    setFailed(const std::string &row, SystemConfig config)
    {
        if (std::find(rows_.begin(), rows_.end(), row) == rows_.end())
            rows_.push_back(row);
        failed_.insert({row, config});
    }

    /** Override the normalisation baseline for one row (used where
     *  vanilla Android cannot run the test, as in fork+exec(ios)). */
    void
    setBaseline(const std::string &row, double value)
    {
        baselines_[row] = value;
    }

    std::optional<double>
    get(const std::string &row, SystemConfig config) const
    {
        auto it = values_.find({row, config});
        if (it == values_.end())
            return std::nullopt;
        return it->second;
    }

    /** Register every cell as a google-benchmark manual-time entry. */
    void
    registerBenchmarks() const
    {
        for (const auto &[key, value] : values_) {
            std::string name =
                title_ + "/" + key.first + "/" +
                core::systemConfigName(key.second);
            for (char &c : name)
                if (c == ' ')
                    c = '_';
            double seconds = higherIsBetter_
                                 ? (value > 0 ? 1.0 / value : 0)
                                 : value / 1e9;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [seconds](benchmark::State &state) {
                    for (auto _ : state) {
                        (void)_;
                        state.SetIterationTime(seconds);
                    }
                })
                ->UseManualTime()
                ->Iterations(1);
        }
    }

    /** Print the paper-style normalised table. */
    void
    print() const
    {
        std::printf("\n=== %s (%s; normalised to Vanilla Android; "
                    "%s is better) ===\n",
                    title_.c_str(), unit_.c_str(),
                    higherIsBetter_ ? "higher" : "lower");
        std::printf("%-28s", "test");
        for (SystemConfig config : kAllConfigs)
            std::printf(" %16s", core::systemConfigName(config));
        std::printf("\n");

        for (const std::string &row : rows_) {
            double baseline = 0;
            auto bit = baselines_.find(row);
            if (bit != baselines_.end()) {
                baseline = bit->second;
            } else if (auto v =
                           get(row, SystemConfig::VanillaAndroid)) {
                baseline = *v;
            } else {
                // First available config stands in.
                for (SystemConfig config : kAllConfigs)
                    if (auto vv = get(row, config)) {
                        baseline = *vv;
                        break;
                    }
            }
            std::printf("%-28s", row.c_str());
            for (SystemConfig config : kAllConfigs) {
                if (failed_.count({row, config})) {
                    std::printf(" %16s", "FAIL");
                    continue;
                }
                auto v = get(row, config);
                if (!v) {
                    std::printf(" %16s", "-");
                    continue;
                }
                double norm = baseline > 0 ? *v / baseline : 0;
                std::printf(" %16.2f", norm);
            }
            std::printf("\n");
        }

        std::printf("raw %s:\n", unit_.c_str());
        for (const std::string &row : rows_) {
            std::printf("%-28s", row.c_str());
            for (SystemConfig config : kAllConfigs) {
                if (failed_.count({row, config})) {
                    std::printf(" %16s", "FAIL");
                } else if (auto v = get(row, config)) {
                    std::printf(" %16.0f", *v);
                } else {
                    std::printf(" %16s", "-");
                }
            }
            std::printf("\n");
        }
    }

    const std::string &title() const { return title_; }

  private:
    std::string title_;
    std::string unit_;
    bool higherIsBetter_;
    std::vector<std::string> rows_;
    std::map<std::pair<std::string, SystemConfig>, double> values_;
    std::set<std::pair<std::string, SystemConfig>> failed_;
    std::map<std::string, double> baselines_;
};

/** True when @p config runs iOS (Mach-O) test binaries. */
inline bool
runsIosBinaries(SystemConfig config)
{
    return config == SystemConfig::CiderIos ||
           config == SystemConfig::IPadMini;
}

/**
 * Install a test program as the right binary format for @p sys and
 * run it, returning the virtual ns consumed by its main thread.
 *
 * The run executes as a single ExecutorPool job pinned to simulated
 * CPU 0, so every figure harness measures through the same executor
 * path the SMP and fleet subsystems use. With one pinned job on a
 * single-threaded pool the determinism contract makes the measured
 * virtual time identical to a direct host-thread run, and the pool's
 * epoch cross-checks the charge: a job whose epoch disagrees with
 * its own return value would corrupt every figure at once.
 */
inline std::uint64_t
installAndRun(CiderSystem &sys, const std::string &name,
              binfmt::ProgramFn fn, int *exit_code = nullptr)
{
    std::string clean = name;
    for (char &c : clean)
        if (c == '/' || c == ' ')
            c = '-';
    std::string path = "/data/bench/" + clean;
    sys.kernel().vfs().mkdirAll("/data/bench");
    if (runsIosBinaries(sys.config()))
        sys.installMachOExecutable(path, clean + ".main",
                                   std::move(fn));
    else
        sys.installElfExecutable(path, clean + ".main", std::move(fn));

    kernel::ExecutorPool pool(sys.kernel().percpu(), 1);
    std::uint64_t ns = 0;
    pool.submitOn(
        0,
        [&sys, &path, &clean, &ns, exit_code] {
            ns = sys.runProgramTimed(path, {clean}, exit_code);
            return ns;
        },
        "figbench");
    kernel::SmpEpoch epoch = pool.runAll();
    if (epoch.jobs != 1 || epoch.mergedNs != ns)
        warn("bench: pool epoch ", epoch.mergedNs,
             " ns disagrees with run ", ns, " ns");
    return ns;
}

/**
 * Print the per-syscall trap breakdown of @p sys: one line per
 * syscall that executed, per dispatch table, with call counts and
 * mean virtual-ns latency. Attribution comes from the kernel's
 * TrapStats subsystem, so the numbers cover every trap the workload
 * made — including the foreign-table traps of iOS binaries.
 */
inline void
printTrapBreakdown(CiderSystem &sys, const std::string &label)
{
    const kernel::TrapStats &stats = sys.trapStats();
    std::printf("\n--- trap breakdown: %s ---\n", label.c_str());
    for (const kernel::SyscallTable *t : stats.tables()) {
        if (stats.tableCalls(t->name()) == 0)
            continue;
        std::printf("%s:\n", t->name().c_str());
        for (int nr : t->registeredNumbers()) {
            kernel::SyscallStat s = stats.stat(t->name(), nr);
            if (s.calls == 0)
                continue;
            std::printf("  %-18s %8llu calls  %8.0f ns/call\n",
                        t->sysName(nr),
                        static_cast<unsigned long long>(s.calls),
                        static_cast<double>(s.totalNs) /
                            static_cast<double>(s.calls));
        }
    }
    std::printf("persona switches: %llu, rejected: %llu, "
                "unknown: %llu\n",
                static_cast<unsigned long long>(
                    stats.personaSwitches()),
                static_cast<unsigned long long>(stats.rejectedTraps()),
                static_cast<unsigned long long>(
                    stats.unknownSyscalls()));
}

/** Run the google-benchmark pass and print the normalised tables. */
inline int
reportAndRun(int argc, char **argv,
             const std::vector<const ResultTable *> &tables)
{
    for (const ResultTable *table : tables)
        table->registerBenchmarks();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    for (const ResultTable *table : tables)
        table->print();
    return 0;
}

} // namespace cider::bench

#endif // CIDER_BENCH_BENCH_UTIL_H
