/**
 * @file
 * dyld tests on a booted Cider system: transitive closure loading,
 * the ~115-image / ~90 MB mapping footprint, handler registration,
 * symbol resolution, the shared-cache behaviour switch, and the
 * launch plan (replay against a naive walk, registry changes,
 * concurrent launches).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "base/logging.h"
#include "core/cider_system.h"
#include "ios/dyld.h"
#include "ios/libsystem.h"
#include "kernel/percpu.h"
#include "kernel/trap_context.h"
#include "xnu/bsd_syscalls.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

/** Records the path of every XNU open trap, then forwards the trap
 *  to the dispatcher it replaced. */
class OpenRecorder : public kernel::TrapDispatcher
{
  public:
    static OpenRecorder &
    install(kernel::Kernel &k)
    {
        auto rec = std::make_unique<OpenRecorder>();
        OpenRecorder &ref = *rec;
        ref.inner_ = k.setDispatcher(std::move(rec));
        return ref;
    }

    const char *name() const override { return "open-recorder"; }

    kernel::SyscallResult
    dispatch(kernel::TrapContext &ctx) override
    {
        if (ctx.cls == kernel::TrapClass::XnuBsd &&
            ctx.nr == xnu::xnuno::OPEN)
            paths.push_back(ctx.args.str(0));
        return inner_->dispatch(ctx);
    }

    std::vector<std::string> paths;

  private:
    std::unique_ptr<kernel::TrapDispatcher> inner_;
};

/** The closure dyld must load, by a plain recursive walk with a
 *  by-name seen set (the reference for the launch plan). */
struct Closure
{
    std::vector<std::string> images;  ///< load order
    std::vector<std::string> missing; ///< not-found warnings, in order
    std::size_t atexit = 0;
    std::size_t atfork = 0;
};

void
naiveWalk(const binfmt::LibraryRegistry &libs, const std::string &name,
          std::set<std::string> &seen, Closure &out)
{
    if (seen.count(name))
        return;
    const binfmt::LibraryImage *img = libs.find(name);
    if (!img) {
        out.missing.push_back(name);
        return;
    }
    seen.insert(name);
    out.images.push_back(name);
    out.atexit += static_cast<std::size_t>(std::max(img->exitHandlers, 1));
    out.atfork += static_cast<std::size_t>(img->atforkHandlers);
    for (const std::string &dep : img->deps)
        naiveWalk(libs, dep, seen, out);
}

Closure
naiveClosure(const binfmt::LibraryRegistry &libs,
             const std::vector<std::string> &roots)
{
    Closure out;
    std::set<std::string> seen;
    for (const std::string &root : roots)
        naiveWalk(libs, root, seen, out);
    return out;
}

/** What one launch did, seen from its main and from the recorder. */
struct LaunchView
{
    std::vector<std::string> opens;
    std::vector<std::string> missing;
    std::vector<std::string> loaded;
    std::vector<std::pair<std::string, std::uint64_t>> mappings;
    std::size_t atexit = 0;
    std::size_t atfork = 0;
    std::uint64_t mainNs = 0;  ///< virtual ns from exec to main
    std::uint64_t totalNs = 0; ///< the whole launch, exit included
};

/** A booted Cider iOS system with one Mach-O app whose main
 *  snapshots what dyld left behind. */
class PlanProbe
{
  public:
    explicit PlanProbe(std::vector<std::string> roots)
        : sys_(options()), roots_(std::move(roots)),
          rec_(OpenRecorder::install(sys_.kernel()))
    {
        sys_.installMachOExecutable(
            "/data/planapp", "planapp.main",
            [this](binfmt::UserEnv &env) {
                LaunchView &v = *view_;
                v.mainNs = env.thread.clock().now();
                ios::LibSystem libc(env);
                v.atexit = libc.atexitCount();
                v.atfork = libc.atforkCount();
                for (const binfmt::LibraryImage *img :
                     ios::Dyld::images(env).loaded)
                    v.loaded.push_back(img->name);
                for (const kernel::VmEntry &e :
                     env.process().mem().entriesSnapshot())
                    v.mappings.emplace_back(e.name, e.pages);
                return 0;
            },
            roots_);
    }

    CiderSystem &sys() { return sys_; }

    LaunchView
    launch()
    {
        LaunchView v;
        view_ = &v;
        rec_.paths.clear();
        setLogQuiet(false);
        testing::internal::CaptureStderr();
        v.totalNs = sys_.runProgramTimed("/data/planapp");
        std::istringstream err(testing::internal::GetCapturedStderr());
        const std::string tag = "warn: dyld: image not found: ";
        for (std::string line; std::getline(err, line);)
            if (line.rfind(tag, 0) == 0)
                v.missing.push_back(line.substr(tag.size()));
        v.opens = rec_.paths;
        view_ = nullptr;
        return v;
    }

    /** Check @p v against the naive walk over the current registry. */
    void
    expectMatchesNaiveWalk(const LaunchView &v, bool shared_cache)
    {
        const binfmt::LibraryRegistry &libs = sys_.iosLibraries();
        Closure want = naiveClosure(libs, roots_);
        EXPECT_EQ(v.loaded, want.images);
        EXPECT_EQ(v.missing, want.missing);
        EXPECT_EQ(v.atexit, want.atexit);
        EXPECT_EQ(v.atfork, want.atfork);

        std::vector<std::string> want_opens;
        std::vector<std::pair<std::string, std::uint64_t>> want_maps;
        if (!shared_cache) {
            for (const std::string &name : want.images) {
                want_opens.push_back("/usr/lib/" + name);
                want_maps.emplace_back("dylib:" + name,
                                       libs.find(name)->pages);
            }
        }
        EXPECT_EQ(v.opens, want_opens);
        std::vector<std::pair<std::string, std::uint64_t>> dylib_maps;
        bool cache_mapped = false;
        for (const auto &[name, pages] : v.mappings) {
            if (name.rfind("dylib:", 0) == 0)
                dylib_maps.emplace_back(name, pages);
            if (name == "dyld.shared-cache") {
                cache_mapped = true;
                EXPECT_EQ(pages, libs.totalPages());
            }
        }
        EXPECT_EQ(dylib_maps, want_maps);
        EXPECT_EQ(cache_mapped, shared_cache);
    }

  private:
    static SystemOptions
    options()
    {
        SystemOptions opts;
        opts.config = SystemConfig::CiderIos;
        return opts;
    }

    CiderSystem sys_;
    std::vector<std::string> roots_;
    OpenRecorder &rec_;
    LaunchView *view_ = nullptr;
};

/** Launch twice (plan built, then reused); both must match the naive
 *  walk, each other and a launch on a fresh system. */
void
checkPlanReplay(std::vector<std::string> roots, bool shared_cache,
                const std::vector<binfmt::LibraryImage> &extra_libs)
{
    auto make = [&] {
        auto probe = std::make_unique<PlanProbe>(roots);
        for (const binfmt::LibraryImage &lib : extra_libs)
            probe->sys().iosLibraries().add(lib);
        // The Cider profile has no shared cache; 1 forces it on.
        probe->sys().dyld().setSharedCacheOverride(shared_cache ? 1 : -1);
        return probe;
    };

    std::unique_ptr<PlanProbe> probe = make();
    LaunchView built = probe->launch();
    LaunchView reused = probe->launch();
    probe->expectMatchesNaiveWalk(built, shared_cache);
    probe->expectMatchesNaiveWalk(reused, shared_cache);
    EXPECT_GT(built.loaded.size(), 100u);
    EXPECT_EQ(reused.opens, built.opens);
    EXPECT_EQ(reused.mappings, built.mappings);
    EXPECT_EQ(reused.mainNs, built.mainNs);
    EXPECT_EQ(reused.totalNs, built.totalNs);

    LaunchView fresh = make()->launch();
    EXPECT_EQ(fresh.mappings, built.mappings);
    EXPECT_EQ(fresh.mainNs, built.mainNs);
    EXPECT_EQ(fresh.totalNs, built.totalNs);
}

TEST(DyldPlan, ReplayMatchesNaiveWalkOnCider)
{
    checkPlanReplay({"libSystem.dylib", "UIKit.dylib"}, false, {});
}

TEST(DyldPlan, ReplayMatchesNaiveWalkWithSharedCache)
{
    checkPlanReplay({"libSystem.dylib", "UIKit.dylib"}, true, {});
}

TEST(DyldPlan, ReplayWarnsForEachMissingImageReference)
{
    // Gone.dylib is a root and a dependency of Broken.dylib: the walk
    // warns at both references, and the plan keeps both markers.
    binfmt::LibraryImage broken;
    broken.name = "Broken.dylib";
    broken.deps = {"Gone.dylib", "libSystem.dylib"};
    broken.atforkHandlers = 1;
    checkPlanReplay({"Gone.dylib", "Broken.dylib", "UIKit.dylib"}, false,
                    {broken});
}

TEST(DyldPlan, RegistryChangeRebuildsThePlan)
{
    PlanProbe probe({"libSystem.dylib", "UIKit.dylib"});
    LaunchView before = probe.launch();
    probe.expectMatchesNaiveWalk(before, false);

    // A new dylib, and a replacement UIKit that depends on it.
    binfmt::LibraryRegistry &libs = probe.sys().iosLibraries();
    binfmt::LibraryImage extra;
    extra.name = "Extra.dylib";
    extra.pages = 77;
    extra.atforkHandlers = 2;
    extra.exitHandlers = 3;
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Dylib);
    builder.segment("__TEXT", extra.pages);
    probe.sys().kernel().vfs().writeFile("/usr/lib/Extra.dylib",
                                         builder.build());
    libs.add(extra);
    binfmt::LibraryImage uikit = *libs.find("UIKit.dylib");
    uikit.deps.push_back("Extra.dylib");
    libs.add(std::move(uikit));

    LaunchView after = probe.launch();
    probe.expectMatchesNaiveWalk(after, false);
    EXPECT_EQ(std::count(after.opens.begin(), after.opens.end(),
                         "/usr/lib/Extra.dylib"),
              1);
    EXPECT_NE(std::find(after.mappings.begin(), after.mappings.end(),
                        std::make_pair(std::string("dylib:Extra.dylib"),
                                       std::uint64_t{77})),
              after.mappings.end());
    EXPECT_EQ(after.loaded.size(), before.loaded.size() + 1);
    EXPECT_EQ(after.atexit, before.atexit + 3);
    EXPECT_EQ(after.atfork, before.atfork + 2);
    EXPECT_GT(after.mainNs, before.mainNs);
}

TEST(DyldPlan, RebuiltPlanLeavesLiveProcessesTheirNames)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);
    sys.installMachOExecutable("/data/live", "live.main",
                               [](binfmt::UserEnv &) { return 0; });
    kernel::Kernel &k = sys.kernel();

    // Exec and run to main, leaving the process alive.
    auto launch = [&k] {
        kernel::Process &proc =
            k.createProcess("live", kernel::Persona::Android);
        kernel::Thread &t = proc.mainThread();
        kernel::ThreadScope scope(t);
        EXPECT_TRUE(k.execLoad(t, "/data/live", {"/data/live"}).ok());
        proc.image().entry(t);
        return &proc;
    };
    auto dylibNames = [](kernel::Process &proc) {
        std::vector<std::string_view> names;
        for (const kernel::VmEntry &e : proc.mem().entriesSnapshot())
            if (e.name.view().rfind("dylib:", 0) == 0)
                names.push_back(e.name);
        return names;
    };

    kernel::Process *first = launch();
    std::vector<std::string> before;
    for (std::string_view name : dylibNames(*first))
        before.emplace_back(name);
    ASSERT_GT(before.size(), 100u);

    // A registry change drops the plan the first launch replayed; the
    // next launch builds a new one and the old plan is freed.
    binfmt::LibraryImage extra;
    extra.name = "Extra.dylib";
    extra.pages = 5;
    sys.iosLibraries().add(extra);
    kernel::Process *second = launch();

    // The first process still reads its names (under ASan, a name
    // viewing the freed plan would be a use after free), and both
    // plans interned each name once: the views share characters.
    std::vector<std::string_view> names = dylibNames(*first);
    ASSERT_EQ(names.size(), before.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(names[i], before[i]);
    EXPECT_EQ(dylibNames(*second), names);
    EXPECT_EQ(dylibNames(*second)[0].data(), names[0].data());
    EXPECT_NE(kernel::dumpVm(k).find("dylib:UIKit.dylib"),
              std::string::npos);

    for (kernel::Process *proc : {first, second}) {
        const kernel::Pid pid = proc->pid();
        {
            kernel::Thread &t = proc->mainThread();
            kernel::ThreadScope scope(t);
            try {
                k.sysExit(t, 0);
            } catch (const kernel::ProcessExit &) {
            }
        }
        EXPECT_TRUE(k.reapProcess(pid));
    }
}

TEST(DyldPlan, ConcurrentLaunchesSeeOneClosure)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);
    sys.installMachOExecutable("/data/conc", "conc.main",
                               [](binfmt::UserEnv &) { return 0; });
    kernel::Kernel &k = sys.kernel();

    constexpr unsigned kHosts = 4;
    constexpr int kLaunches = 25;
    using Table = std::vector<const binfmt::LibraryImage *>;
    std::vector<std::vector<Table>> loaded(kHosts);
    std::vector<std::vector<std::uint64_t>> ns(kHosts);
    kernel::ExecutorPool pool(k.percpu(), kHosts);
    for (unsigned h = 0; h < kHosts; ++h)
        pool.submit([&, h] {
            std::uint64_t consumed = 0;
            for (int i = 0; i < kLaunches; ++i) {
                kernel::Process &proc =
                    k.createProcess("conc", kernel::Persona::Android);
                kernel::Thread &t = proc.mainThread();
                {
                    kernel::ThreadScope scope(t);
                    if (k.execLoad(t, "/data/conc", {"/data/conc"}).ok())
                        proc.image().entry(t);
                    binfmt::UserEnv env{k, t, {}};
                    loaded[h].push_back(ios::Dyld::images(env).loaded);
                    ns[h].push_back(t.clock().now());
                    try {
                        k.sysExit(t, 0);
                    } catch (const kernel::ProcessExit &) {
                    }
                }
                consumed += ns[h].back();
                k.reapProcess(proc.pid());
            }
            return consumed;
        });
    pool.runAll();

    const Table &first = loaded[0][0];
    EXPECT_GT(first.size(), 100u);
    for (unsigned h = 0; h < kHosts; ++h) {
        ASSERT_EQ(loaded[h].size(), static_cast<std::size_t>(kLaunches));
        for (int i = 0; i < kLaunches; ++i) {
            EXPECT_EQ(loaded[h][i], first) << "host " << h << " launch " << i;
            EXPECT_EQ(ns[h][i], ns[0][0]) << "host " << h << " launch " << i;
        }
    }
}

TEST(Dyld, LoadsFullClosureWithFootprint)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    sys.installMachOExecutable("/data/app", "dyldprobe.main",
                               [](binfmt::UserEnv &env) {
                                   ios::LibSystem libc(env);
                                   ios::DyldImages &images =
                                       ios::Dyld::images(env);
                                   // All ~115 images mapped whether
                                   // used or not.
                                   if (images.loaded.size() < 110)
                                       return 1;
                                   // dyld registered one exit handler
                                   // per image.
                                   if (libc.atexitCount() <
                                       images.loaded.size())
                                       return 2;
                                   if (libc.atforkCount() < 30)
                                       return 3;
                                   return 0;
                               });
    EXPECT_EQ(sys.runProgram("/data/app"), 0);

    // ~90 MB of dylib mappings: >= 20000 4 KB pages.
    // (Process is gone, so re-run and inspect during execution.)
    std::uint64_t pages_seen = 0;
    sys.programs().add("footprint.main",
                       [&pages_seen](binfmt::UserEnv &env) {
                           pages_seen = env.process().mem().pages();
                           return 0;
                       });
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry("footprint.main").segment("__TEXT", 8);
    builder.dylib("libSystem.dylib").dylib("UIKit.dylib");
    sys.kernel().vfs().writeFile("/data/fp", builder.build());
    sys.runProgram("/data/fp");
    EXPECT_GE(pages_seen, 20000u);
}

TEST(Dyld, ResolvesSymbolsAcrossLoadedImages)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    int rc = -1;
    sys.installMachOExecutable(
        "/data/resolver", "resolver.main", [](binfmt::UserEnv &env) {
            // glClear comes from the diplomatic OpenGLES.dylib;
            // EAGL from EAGL.dylib.
            if (!ios::Dyld::resolve(env, "glClear"))
                return 1;
            if (!ios::Dyld::resolve(env, "EAGLContext_initWithAPI"))
                return 2;
            if (ios::Dyld::resolve(env, "no_such_symbol"))
                return 3;
            return 0;
        });
    rc = sys.runProgram("/data/resolver");
    EXPECT_EQ(rc, 0);
}

TEST(Dyld, ReplacedImageStaysResolvableInProcessesThatLoadedIt)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);
    binfmt::LibraryRegistry &libs = sys.iosLibraries();

    sys.installMachOExecutable(
        "/data/replacer", "replacer.main",
        [&libs](binfmt::UserEnv &env) {
            const binfmt::Symbol *loaded =
                ios::Dyld::resolve(env, "glClear");
            if (!loaded)
                return 1;
            // Replace the image this process loaded; its dyld table
            // still points at the old one.
            binfmt::LibraryImage gl = *libs.find("OpenGLES.dylib");
            gl.exports = {};
            gl.exports.add("glClear",
                           [](binfmt::UserEnv &, std::vector<binfmt::Value> &) {
                               return binfmt::Value{std::int64_t{-7}};
                           });
            libs.add(std::move(gl));

            const binfmt::Symbol *sym = ios::Dyld::resolve(env, "glClear");
            if (sym != loaded)
                return 2;
            std::vector<binfmt::Value> args{std::int64_t{0x4000}};
            if (binfmt::valueI64(sym->fn(env, args)) == -7)
                return 3;
            return 0;
        });
    EXPECT_EQ(sys.runProgram("/data/replacer"), 0);
}

TEST(Dyld, MissingImageWarnsButContinues)
{
    setLogQuiet(true);
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    sys.installMachOExecutable("/data/badapp", "badapp.main",
                               [](binfmt::UserEnv &) { return 0; },
                               {"NoSuchFramework.dylib",
                                "libSystem.dylib"});
    EXPECT_EQ(sys.runProgram("/data/badapp"), 0);
    setLogQuiet(false);
}

TEST(Dyld, SharedCacheSkipsFilesystemWalkAndForkCost)
{
    // Cider (no shared cache): per-image walk, private mappings.
    SystemOptions cider_opts;
    cider_opts.config = SystemConfig::CiderIos;
    CiderSystem cider(cider_opts);
    std::uint64_t cider_private = 0;
    cider.programs().add("probe.main",
                         [&](binfmt::UserEnv &env) {
                             cider_private =
                                 env.process().mem().privatePages();
                             return 0;
                         });
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry("probe.main").segment("__TEXT", 8);
    builder.dylib("libSystem.dylib").dylib("UIKit.dylib");
    cider.kernel().vfs().writeFile("/data/probe", builder.build());
    cider.runProgram("/data/probe");

    // iPad (shared cache): images live in the shared region, so the
    // private page count fork must copy is tiny.
    SystemOptions ipad_opts;
    ipad_opts.config = SystemConfig::IPadMini;
    CiderSystem ipad(ipad_opts);
    std::uint64_t ipad_private = 0;
    ipad.programs().add("probe.main",
                        [&](binfmt::UserEnv &env) {
                            ipad_private =
                                env.process().mem().privatePages();
                            return 0;
                        });
    ipad.kernel().vfs().writeFile("/data/probe", builder.build());
    ipad.runProgram("/data/probe");

    EXPECT_GE(cider_private, 20000u);
    EXPECT_LT(ipad_private, 1000u);
}

TEST(Dyld, ExecCostDominatedByLibraryWalkOnCider)
{
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    CiderSystem sys(opts);

    sys.installMachOExecutable("/data/tiny", "tiny.main",
                               [](binfmt::UserEnv &) { return 0; });
    std::uint64_t cider_ns = sys.runProgramTimed("/data/tiny");

    SystemOptions ipad_opts;
    ipad_opts.config = SystemConfig::IPadMini;
    CiderSystem ipad(ipad_opts);
    ipad.installMachOExecutable("/data/tiny", "tiny.main",
                                [](binfmt::UserEnv &) { return 0; });
    std::uint64_t ipad_ns = ipad.runProgramTimed("/data/tiny");

    // Figure 5's fork+exec(ios): Cider's per-image filesystem walk
    // makes exec much more expensive than the iPad's shared cache.
    EXPECT_GT(cider_ns, 2 * ipad_ns);
}

} // namespace
} // namespace cider
