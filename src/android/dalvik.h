/**
 * @file
 * The Dalvik-style bytecode interpreter.
 *
 * Android apps run as interpreted DexLite bytecode inside this VM;
 * iOS apps run native text. Every interpreted instruction pays the
 * profile's dispatch cost on top of the operation itself, which is
 * the mechanism behind the paper's Figure 6 finding that the *same
 * benchmark* runs faster as an iOS binary under Cider than as the
 * Java/Dalvik Android app on identical hardware.
 */

#ifndef CIDER_ANDROID_DALVIK_H
#define CIDER_ANDROID_DALVIK_H

#include <functional>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "binfmt/dex.h"
#include "hw/device_profile.h"

namespace cider::android {

/** A Dalvik runtime value. */
using DexVal = std::variant<std::int64_t, double,
                            std::shared_ptr<std::vector<std::int64_t>>>;

std::int64_t dexI(const DexVal &v);
double dexF(const DexVal &v);

/** VM execution statistics. */
struct DalvikStats
{
    std::uint64_t instructions = 0;
    std::uint64_t nativeCalls = 0;
    std::uint64_t methodCalls = 0;
};

class TranslationCache;
struct MethodEntry;
class DexJit;

class DalvikVm
{
  public:
    using NativeFn = std::function<DexVal(std::vector<DexVal> &)>;

    explicit DalvikVm(const hw::DeviceProfile &profile)
        : profile_(profile)
    {}

    /**
     * Register a JNI-style native bridge function. Rebinding (or
     * first-binding) a name bumps the native-table generation, which
     * invalidates every cached decode/translation of this VM's
     * methods at their next invocation.
     */
    void registerNative(const std::string &name, NativeFn fn);

    /**
     * Run @p method of @p file with @p args in the first locals.
     * Returns the Ret value (0 when the method falls off the end).
     * With a translation cache attached, hot methods execute as
     * DexJit threaded code; without one (or during warm-up) they are
     * interpreted. Virtual time, stats, and SchedRail traces are
     * identical either way.
     */
    DexVal run(const binfmt::DexFile &file, const std::string &method,
               std::vector<DexVal> args = {});

    const DalvikStats &stats() const { return stats_; }

    /** Attach the system-wide translation cache (null detaches). */
    void setTranslationCache(TranslationCache *cache) { cache_ = cache; }
    TranslationCache *translationCache() const { return cache_; }

    /** Master JIT switch; off means always interpret (A/B harness). */
    void setJitEnabled(bool on) { jitEnabled_ = on; }

    /** Invocations to interpret before translating a method. */
    void setJitWarmup(std::uint32_t runs) { jitWarmup_ = runs; }
    std::uint32_t jitWarmup() const { return jitWarmup_; }

    /** Generation stamp of the native table (bumped per rebind). */
    std::uint64_t nativesGeneration() const { return nativesGen_; }

    /** Registered native for @p name, or null. Pointers stay valid
     *  for the VM's lifetime (std::map nodes are stable). */
    const NativeFn *findNative(const std::string &name) const;

    const hw::DeviceProfile &profile() const { return profile_; }

  private:
    friend class DexJit;

    /**
     * Central call path for both engines: depth check, SchedRail
     * yield point, cache acquire / warm-up accounting, then dispatch
     * to DexJit::execute or the interpreter.
     */
    DexVal invoke(const binfmt::DexFile &file,
                  const binfmt::DexMethod &method,
                  std::vector<DexVal> &args, int depth);

    DexVal execute(const binfmt::DexFile &file,
                   const binfmt::DexMethod &method,
                   std::vector<DexVal> &args, int depth,
                   const MethodEntry *entry);

    const hw::DeviceProfile &profile_;
    std::map<std::string, NativeFn> natives_;
    DalvikStats stats_;
    TranslationCache *cache_ = nullptr;
    bool jitEnabled_ = true;
    std::uint32_t jitWarmup_ = 2;
    std::uint64_t nativesGen_ = 1;
};

} // namespace cider::android

#endif // CIDER_ANDROID_DALVIK_H
