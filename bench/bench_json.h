/**
 * @file
 * Machine-readable bench output, dependency-free so the plain soak
 * binaries (chaos_soak, fleet_soak) can emit the same schema as the
 * google-benchmark harnesses that include bench_util.h.
 */

#ifndef CIDER_BENCH_BENCH_JSON_H
#define CIDER_BENCH_BENCH_JSON_H

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cider::bench {

/**
 * Each row records a workload's deterministic virtual-time cost *and*
 * its host wall-clock cost, so a hot-path optimisation can prove two
 * things at once: the virtual series is unchanged (bit-identical
 * simulation) and the host-side time actually dropped. Written as
 * `BENCH_<name>.json` in the working directory; CI uploads these as
 * artifacts. Each file records where it was measured: the build type
 * (CIDER_BUILD_TYPE, bench/CMakeLists.txt) and the host's cores.
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string name) : name_(std::move(name)) {}

    void
    add(const std::string &row, double virtual_ns, double host_ns)
    {
        rows_.push_back({row, virtual_ns, host_ns, {}});
    }

    /** Attach an extra metric to the most recently added row. */
    void
    metric(const std::string &key, double value)
    {
        if (!rows_.empty())
            rows_.back().metrics.emplace_back(key, value);
    }

    bool
    write() const
    {
        std::string path = "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f,
                     "{\n  \"bench\": \"%s\",\n"
                     "  \"build_type\": \"%s\",\n"
                     "  \"host_cores\": %u,\n  \"rows\": [\n",
                     name_.c_str(), CIDER_BUILD_TYPE,
                     std::thread::hardware_concurrency());
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", "
                         "\"virtual_ns\": %.0f, "
                         "\"host_ns\": %.0f",
                         r.name.c_str(), r.virtualNs, r.hostNs);
            for (const auto &[key, value] : r.metrics)
                std::fprintf(f, ", \"%s\": %g", key.c_str(), value);
            std::fprintf(f, "}%s\n",
                         i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    struct Row
    {
        std::string name;
        double virtualNs;
        double hostNs;
        std::vector<std::pair<std::string, double>> metrics;
    };

    std::string name_;
    std::vector<Row> rows_;
};

} // namespace cider::bench

#endif // CIDER_BENCH_BENCH_JSON_H
