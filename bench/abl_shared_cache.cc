/**
 * @file
 * Ablation: the dyld prelinked shared cache on Cider.
 *
 * The paper notes the iPad's fork/exec advantage comes from a shared
 * library cache "not yet supported in the Cider prototype". This
 * bench enables that optimisation on Cider (dyld override) and shows
 * how much of the fork+exit and exec gap it closes.
 */

#include "bench/bench_util.h"
#include "persona/libc.h"

namespace cider::bench {
namespace {

std::uint64_t
forkExitCost(CiderSystem &sys)
{
    std::uint64_t ns = 0;
    installAndRun(sys, "sc_forkexit", [&](binfmt::UserEnv &env) {
        persona::Libc posix(env);
        ns = measureVirtual([&] {
            int pid = posix.fork([&env](kernel::Thread &child) -> int {
                binfmt::UserEnv cenv{env.kernel, child, {}};
                persona::Libc cposix(cenv);
                cposix.exit(0);
            });
            int status;
            posix.waitpid(pid, &status);
        });
        return 0;
    });
    return ns;
}

std::uint64_t
execCost(CiderSystem &sys)
{
    sys.installMachOExecutable("/data/sc_child", "sc_child.main",
                               [](binfmt::UserEnv &) { return 0; });
    return sys.runProgramTimed("/data/sc_child");
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    ResultTable table("Abl.shared-cache", "ns", false);

    // Prototype behaviour: per-image filesystem walk, private maps.
    {
        SystemOptions opts;
        opts.config = SystemConfig::CiderIos;
        CiderSystem sys(opts);
        table.set("fork+exit", SystemConfig::CiderIos,
                  forkExitCost(sys));
        table.set("exec(ios)", SystemConfig::CiderIos, execCost(sys));
    }
    // With the shared cache implemented (the paper's future work):
    // report under the iPad column so both appear side by side.
    {
        SystemOptions opts;
        opts.config = SystemConfig::CiderIos;
        CiderSystem sys(opts);
        sys.dyld().setSharedCacheOverride(1);
        table.set("fork+exit", SystemConfig::IPadMini,
                  forkExitCost(sys));
        table.set("exec(ios)", SystemConfig::IPadMini, execCost(sys));
        table.setBaseline("fork+exit",
                          *table.get("fork+exit",
                                     SystemConfig::CiderIos));
        table.setBaseline("exec(ios)",
                          *table.get("exec(ios)",
                                     SystemConfig::CiderIos));
    }

    std::printf("NOTE: 'iPad mini' column = Cider + shared-cache "
                "override (the ablation), not the real iPad.\n");
    return reportAndRun(argc, argv, {&table});
}
