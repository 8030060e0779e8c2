/**
 * @file
 * dyld: the Darwin dynamic linker.
 *
 * Loads the transitive dylib closure of a Mach-O image before main
 * runs. On the Cider prototype there is no prelinked shared cache, so
 * dyld walks the filesystem and maps every library individually —
 * ~115 images and ~90 MB of mappings whether or not the binary uses
 * them. That inflates fork (page-table duplication) and exec (the
 * walk repeats) for iOS binaries; real iOS devices amortise it with
 * the shared cache. Both behaviours are implemented here, switched by
 * the device profile's dyldSharedCache flag (Figure 5's fork/exec
 * group and the shared-cache ablation).
 *
 * The simulated walk is charged on every exec, but the host resolves
 * it once: the first launch of a root list builds a launch plan (the
 * deduplicated depth-first image list with its prebuilt paths), and
 * every later launch replays it. Plans are host-only state; see
 * DESIGN.md, "Prelinked launch plan". A plan holds its images' entry
 * names interned in the kernel it was built for, so a replay maps
 * them without copying a string.
 */

#ifndef CIDER_IOS_DYLD_H
#define CIDER_IOS_DYLD_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "binfmt/binfmt_registry.h"
#include "binfmt/macho.h"
#include "binfmt/program.h"
#include "kernel/vm.h"

namespace cider::ios {

/** Per-process table of loaded images (key "dyld.images"). */
struct DyldImages
{
    std::vector<const binfmt::LibraryImage *> loaded;
    /** Which registry slots (LibraryImage::index) loaded holds: the
     *  by-name dedupe. */
    std::vector<bool> has;

    /** Append @p img unless an image of its name is loaded already;
     *  false when one is. */
    bool insert(const binfmt::LibraryImage &img);
};

class Dyld
{
  public:
    /**
     * @param libraries the iOS framework/library registry.
     * @param library_dir VFS directory holding the dylib files
     *        (defaults to the iOS /usr/lib overlay).
     */
    explicit Dyld(binfmt::LibraryRegistry &libraries,
                  std::string library_dir = "/usr/lib");

    /**
     * The loader-invoked bootstrap: resolve the image's dylib
     * closure, map every library, and register atfork handlers and
     * the per-image exit callbacks with libSystem. An image the
     * process has loaded already is skipped.
     */
    void bootstrap(binfmt::UserEnv &env,
                   const binfmt::MachOImage &image);

    /** Loaded-image table of the calling process. */
    static DyldImages &images(binfmt::UserEnv &env);

    /** dlsym: search loaded images for @p symbol. */
    static const binfmt::Symbol *resolve(binfmt::UserEnv &env,
                                         const std::string &symbol);

    /** Force shared-cache behaviour regardless of profile (ablation
     *  hook); -1 follows the profile. */
    void setSharedCacheOverride(int enabled)
    {
        sharedCacheOverride_ = enabled;
    }

    /** A MachOBootstrap adapter for the kernel loader seam. */
    binfmt::MachOBootstrap asBootstrap();

  private:
    struct LaunchPlan;

    /** The plan for @p roots at the registry's current generation,
     *  built on first use with its names interned in @p vm. */
    std::shared_ptr<const LaunchPlan>
    launchPlan(const std::vector<std::string> &roots,
               kernel::VmSubsystem &vm);
    void planImage(const std::string &name, DyldImages &seen,
                   LaunchPlan &plan, kernel::VmSubsystem &vm) const;

    binfmt::LibraryRegistry &libraries_;
    std::string libraryDir_;
    int sharedCacheOverride_ = -1;

    /**
     * Guards the plan cache. Taken only to find or build a plan,
     * never across a trap: traps are SchedRail yield points, and a
     * rail guest holding it there could block every other guest.
     */
    std::mutex planMu_;
    /** Plans by root list, all built at registry generation planGen_
     *  with names interned in planVm_. */
    std::map<std::vector<std::string>, std::shared_ptr<const LaunchPlan>>
        plans_;
    std::uint64_t planGen_ = 0;
    const kernel::VmSubsystem *planVm_ = nullptr;
};

} // namespace cider::ios

#endif // CIDER_IOS_DYLD_H
