/**
 * @file
 * A fixed piece of host work, independent of the simulator, that
 * hostbench times between stretches of a workload to gauge how fast
 * the host runs at that moment.
 *
 * The benchmark's box is a few cores of a shared host whose speed
 * drifts by up to 2x over minutes as other tenants come and go (see
 * README.md). The probe's work never changes, so its CPU time moves
 * only with the host; hostbench divides each stretch of workload CPU
 * time by the probe's CPU time around it (relative to kNominalNs,
 * raised to the workload's sensitivity) and so reports host cost at
 * one fixed host speed.
 *
 * The work is two parts that, of the kernels tried on the box, tracked
 * the simulator's own slowdowns best: updates to an open-addressing
 * hash table in a core's L2, and standard-library work like the
 * simulator's (hash-map and tree-map updates, small heap objects,
 * virtual calls). Each part repeats kReps times and contributes its
 * median repetition, so an interrupt that hits one does not move it.
 */

#ifndef HOSTBENCH_PROBE_H
#define HOSTBENCH_PROBE_H

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace hostbench {

/** CPU ns the calling thread has run. Time the hypervisor gives other
 *  guests, which wall time includes, is not in it. */
inline std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

class HostProbe
{
  public:
    static constexpr int kReps = 5;
    /** The host speed hostbench scales every host time to: a round
     *  figure for a probe's CPU ns on the box the benchmark was tuned
     *  on (a 4-vCPU Intel Xeon microVM, where it took 1.05-1.66 ms). */
    static constexpr double kNominalNs = 1'000'000;

    HostProbe() : table_(kTableSlots) {}

    /** Run one probe; returns its thread-CPU ns. */
    double
    measure()
    {
        double ns = 0;
        for (int part = 0; part < 2; ++part) {
            std::array<std::uint64_t, kReps> cpu{};
            for (int r = 0; r < kReps; ++r) {
                const std::uint64_t c0 = threadCpuNs();
                sink_ += part == 0 ? hashPart() : libraryPart();
                cpu[r] = threadCpuNs() - c0;
            }
            ns += medianOf(cpu);
        }
        return ns;
    }

  private:
    static constexpr std::uint32_t kTableSlots = 1u << 16; // 512 KB

    struct Shape
    {
        virtual ~Shape() = default;
        virtual std::uint64_t f(std::uint64_t x) const = 0;
    };
    struct Odd : Shape
    {
        std::uint64_t f(std::uint64_t x) const override { return x * 3 + 1; }
    };
    struct Even : Shape
    {
        std::uint64_t f(std::uint64_t x) const override { return x ^ (x >> 5); }
    };

    static std::uint64_t
    next(std::uint64_t &s)
    {
        // splitmix64
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static double
    medianOf(std::array<std::uint64_t, kReps> v)
    {
        std::nth_element(v.begin(), v.begin() + kReps / 2, v.end());
        return static_cast<double>(v[kReps / 2]);
    }

    /** Inserts into and removals from the hash table: every call makes
     *  the same keys, so calls alternate between filling and emptying
     *  the same slots. */
    std::uint64_t
    hashPart()
    {
        std::uint64_t s = 0x243f6a8885a308d3ULL;
        std::uint64_t filled = 0;
        for (int i = 0; i < 72000; ++i) {
            const std::uint64_t key = next(s) | 1;
            const auto slot = static_cast<std::uint32_t>(key);
            for (std::uint32_t p = 0; p < 8; ++p) {
                std::uint64_t &e = table_[(slot + p) & (kTableSlots - 1)];
                if (e == 0 || (e & 7) == (key & 7)) {
                    e = (e & 1) ? 0 : key;
                    filled += e != 0;
                    break;
                }
            }
        }
        return filled;
    }

    /** Standard-library updates over maps that settle at a steady size. */
    std::uint64_t
    libraryPart()
    {
        std::uint64_t s = 0x13198a2e03707344ULL;
        std::uint64_t acc = 0;
        for (int i = 0; i < 1500; ++i) {
            const std::uint64_t k = next(s) % 40000;
            auto it = hashed_.find(k);
            if (it == hashed_.end()) {
                hashed_.emplace(k, static_cast<std::uint64_t>(i));
            } else {
                acc += it->second;
                if (k & 1)
                    hashed_.erase(it);
            }
            const auto key = static_cast<std::uint32_t>(next(s) % 3000);
            auto jt = ordered_.find(key);
            if (jt == ordered_.end()) {
                ordered_.emplace(key, std::string(16 + key % 48, 'x'));
            } else {
                acc += jt->second.size();
                if (key & 1)
                    ordered_.erase(jt);
            }
            std::unique_ptr<Shape> shape;
            if (k & 2)
                shape = std::make_unique<Odd>();
            else
                shape = std::make_unique<Even>();
            acc += shape->f(k);
            std::vector<std::uint64_t> v(8 + k % 64, k);
            acc += v.back();
        }
        return acc;
    }

    std::vector<std::uint64_t> table_;
    std::unordered_map<std::uint64_t, std::uint64_t> hashed_;
    std::map<std::uint32_t, std::string> ordered_;
    std::uint64_t sink_ = 0; ///< keeps the work from being optimised away
};

} // namespace hostbench

#endif // HOSTBENCH_PROBE_H
