#include "ios/dyld.h"

#include <algorithm>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "ios/libsystem.h"

namespace cider::ios {

namespace {

// Link-edit work per image (symbol binding, rebasing), in cycles.
constexpr double kLinkCycles = 30000;
// With the prelinked shared cache, per-image work collapses to a
// fraction: the cache is mapped once and images are pre-bound.
constexpr double kSharedCacheLinkCycles = 1500;

} // namespace

/**
 * What dyld does for one list of root dylibs, resolved against one
 * registry generation: the images in the order the depth-first walk
 * loads them. Immutable once built, and shared by every bootstrap
 * that launches the same roots.
 */
struct Dyld::LaunchPlan
{
    struct Step
    {
        /** Null when no image of this name is registered: replay
         *  warns at this point of the walk, as the walk did. */
        const binfmt::LibraryImage *image = nullptr;
        std::string name;
        std::string path;       ///< the file the walk opens
        kernel::VmName mapping; ///< its VmMap entry name, interned
    };

    std::vector<Step> steps;
    std::size_t images = 0;         ///< steps with an image
    std::size_t atexitHandlers = 0; ///< registered over all images
    std::size_t atforkHandlers = 0;
    std::uint64_t cachePages = 0; ///< the shared cache's size
};

bool
DyldImages::insert(const binfmt::LibraryImage &img)
{
    if (img.index >= has.size())
        has.resize(img.index + 1);
    if (has[img.index])
        return false;
    has[img.index] = true;
    loaded.push_back(&img);
    return true;
}

Dyld::Dyld(binfmt::LibraryRegistry &libraries, std::string library_dir)
    : libraries_(libraries), libraryDir_(std::move(library_dir))
{}

DyldImages &
Dyld::images(binfmt::UserEnv &env)
{
    return env.process().ext().get<DyldImages>(
        kernel::ProcessSlot::DyldImages);
}

const binfmt::Symbol *
Dyld::resolve(binfmt::UserEnv &env, const std::string &symbol)
{
    DyldImages &table = images(env);
    for (const binfmt::LibraryImage *img : table.loaded)
        if (const binfmt::Symbol *sym = img->exports.find(symbol))
            return sym;
    return nullptr;
}

void
Dyld::planImage(const std::string &name, DyldImages &seen,
                LaunchPlan &plan, kernel::VmSubsystem &vm) const
{
    const binfmt::LibraryImage *img = libraries_.find(name);
    if (!img) {
        plan.steps.push_back({nullptr, name, {}, {}});
        return;
    }
    if (!seen.insert(*img))
        return;
    plan.steps.push_back({img, name, libraryDir_ + "/" + name,
                          vm.intern("dylib:" + name)});
    ++plan.images;
    plan.atexitHandlers += std::max(img->exitHandlers, 1);
    plan.atforkHandlers += std::max(img->atforkHandlers, 0);
    // Recurse into dependencies (already-planned ones are skipped).
    for (const std::string &dep : img->deps)
        planImage(dep, seen, plan, vm);
}

std::shared_ptr<const Dyld::LaunchPlan>
Dyld::launchPlan(const std::vector<std::string> &roots,
                 kernel::VmSubsystem &vm)
{
    // Building a plan makes no trap and charges nothing, so holding
    // the lock through it keeps concurrent first launches to one build.
    std::lock_guard<std::mutex> lock(planMu_);
    if (planGen_ != libraries_.generation() || planVm_ != &vm) {
        plans_.clear();
        planGen_ = libraries_.generation();
        planVm_ = &vm;
    }
    std::shared_ptr<const LaunchPlan> &slot = plans_[roots];
    if (!slot) {
        auto plan = std::make_shared<LaunchPlan>();
        DyldImages seen;
        for (const std::string &root : roots)
            planImage(root, seen, *plan, vm);
        plan->cachePages = libraries_.totalPages();
        slot = std::move(plan);
    }
    return slot;
}

void
Dyld::bootstrap(binfmt::UserEnv &env, const binfmt::MachOImage &image)
{
    const hw::DeviceProfile &profile = env.kernel.profile();
    bool shared_cache = profile.dyldSharedCache;
    if (sharedCacheOverride_ >= 0)
        shared_cache = sharedCacheOverride_ != 0;
    const std::shared_ptr<const LaunchPlan> plan =
        launchPlan(image.dylibs, env.kernel.vm());
    kernel::AddressSpace &mem = env.process().mem();

    if (shared_cache) {
        // One mapping covers the whole prelinked cache: the cache is
        // a single system-wide VmObject (created on first boot of any
        // process), entered into this task as a shared submap that
        // fork aliases for free.
        charge(profile.storageOpenNs);
        kernel::VmObjectPtr region =
            env.kernel.vm().sharedRegion("dyld.shared-cache",
                                         plan->cachePages);
        if (!mem.hasMapping("dyld.shared-cache"))
            mem.mapObject("dyld.shared-cache", std::move(region),
                          kernel::VM_PROT_READ,
                          /*cow=*/false, /*shared=*/true);
    }

    DyldImages &table = images(env);
    LibSystem libc(env);
    persona::LibcState &darwin = libc.state();
    table.loaded.reserve(table.loaded.size() + plan->images);
    darwin.atexitHandlers.reserve(darwin.atexitHandlers.size() +
                                  plan->atexitHandlers);
    darwin.atforkHandlers.reserve(darwin.atforkHandlers.size() +
                                  plan->atforkHandlers);
    const std::uint64_t link_ns = profile.cyclesToNs(
        shared_cache ? kSharedCacheLinkCycles : kLinkCycles);

    for (const LaunchPlan::Step &step : plan->steps) {
        if (!step.image) {
            warn("dyld: image not found: ", step.name);
            continue;
        }
        const binfmt::LibraryImage &img = *step.image;
        if (!table.insert(img))
            continue;
        if (!shared_cache) {
            // Walk the filesystem and map the image individually.
            // These pages are what fork() must write-protect-sweep.
            int fd = libc.open(step.path, kernel::oflag::RDONLY);
            if (fd >= 0)
                libc.close(fd);
            charge(link_ns);
            mem.addMapping(step.mapping, img.pages);
        } else {
            // Shared-cache images live in the shared region mapped
            // above; no per-image mapping.
            charge(link_ns);
        }

        // dyld registers an exit-time callback for every image, and
        // the image's own runtime may install pthread_atfork
        // callbacks.
        darwin.atexitHandlers.emplace_back([] {});
        for (int i = 0; i < img.atforkHandlers; ++i)
            darwin.atforkHandlers.push_back({[] {}, [] {}, [] {}});
        for (int i = 1; i < img.exitHandlers; ++i)
            darwin.atexitHandlers.emplace_back([] {});
    }
}

binfmt::MachOBootstrap
Dyld::asBootstrap()
{
    return [this](binfmt::UserEnv &env, const binfmt::MachOImage &image) {
        bootstrap(env, image);
    };
}

} // namespace cider::ios
