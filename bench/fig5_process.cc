/**
 * @file
 * Figure 5, groups 3-4: process creation — fork+exit, the four
 * fork+exec variations, and the four fork+sh variations.
 *
 * Expected shape (paper): Cider adds negligible overhead for Linux
 * binaries; iOS binaries pay ~14x on fork+exit (dyld's ~90 MB of
 * mappings to duplicate plus the atfork/exit handler storms);
 * exec'ing an iOS child is far more expensive still because dyld
 * walks the filesystem for every image (no prelinked shared cache on
 * the Cider prototype); the iPad mini is faster on these because of
 * its shared cache. fork+exec(ios)/fork+sh(ios) rows are normalised
 * against the corresponding (android) vanilla value — the paper's
 * "intentionally unfair" comparison.
 */

#include "bench/bench_util.h"
#include "persona/libc.h"

namespace cider::bench {
namespace {

/** Install the ELF and Mach-O "hello world" children plus /bin/sh. */
void
provisionChildren(CiderSystem &sys)
{
    bool has_elf = sys.config() != SystemConfig::IPadMini;
    bool has_macho = runsIosBinaries(sys.config()) ||
                     core::isCider(sys.config());

    if (has_elf) {
        sys.installElfExecutable("/system/bin/hello-linux",
                                 "hello.linux",
                                 [](binfmt::UserEnv &) { return 0; });
        // A minimal shell: forks and execs its argument.
        sys.installElfExecutable(
            "/system/bin/sh", "sh.linux", [](binfmt::UserEnv &env) {
                if (env.argv.size() < 2)
                    return 1;
                persona::Libc posix(env);
                std::string target = env.argv[1];
                int pid = posix.fork(
                    [&env, target](kernel::Thread &child) -> int {
                        binfmt::UserEnv cenv{env.kernel, child, {}};
                        persona::Libc cposix(cenv);
                        cposix.execve(target, {target});
                        return 127;
                    });
                int status = 0;
                posix.waitpid(pid, &status);
                return status;
            });
    }
    if (has_macho || sys.config() == SystemConfig::IPadMini) {
        sys.installMachOExecutable("/system/bin/hello-ios",
                                   "hello.ios",
                                   [](binfmt::UserEnv &) { return 0; });
        if (sys.config() == SystemConfig::IPadMini) {
            // The iPad's shell is an iOS binary.
            sys.installMachOExecutable(
                "/system/bin/sh", "sh.ios",
                [](binfmt::UserEnv &env) {
                    if (env.argv.size() < 2)
                        return 1;
                    persona::Libc posix(env);
                    std::string target = env.argv[1];
                    int pid = posix.fork(
                        [&env, target](kernel::Thread &child) -> int {
                            binfmt::UserEnv cenv{env.kernel, child, {}};
                            persona::Libc cposix(cenv);
                            cposix.execve(target, {target});
                            return 127;
                        });
                    int status = 0;
                    posix.waitpid(pid, &status);
                    return status;
                });
        }
    }
}

/** fork+exit: fork a child that immediately exits; reap it. */
std::uint64_t
forkExit(CiderSystem &sys)
{
    std::uint64_t ns = 0;
    installAndRun(sys, "fork_exit", [&](binfmt::UserEnv &env) {
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

/** fork+exec: fork a child that execs @p target. */
std::uint64_t
forkExec(CiderSystem &sys, const std::string &target)
{
    std::uint64_t ns = 0;
    installAndRun(sys, "fork_exec", [&](binfmt::UserEnv &env) {
        persona::Libc posix(env);
        ns = measureVirtual([&] {
            int pid = posix.fork(
                [&env, target](kernel::Thread &child) -> int {
                    binfmt::UserEnv cenv{env.kernel, child, {}};
                    persona::Libc cposix(cenv);
                    cposix.execve(target, {target});
                    return 127;
                });
            int status;
            posix.waitpid(pid, &status);
        });
        return 0;
    });
    return ns;
}

/** fork+sh: launch the shell which runs @p target. */
std::uint64_t
forkSh(CiderSystem &sys, const std::string &target)
{
    std::uint64_t ns = 0;
    installAndRun(sys, "fork_sh", [&](binfmt::UserEnv &env) {
        persona::Libc posix(env);
        ns = measureVirtual([&] {
            int pid = posix.fork(
                [&env, target](kernel::Thread &child) -> int {
                    binfmt::UserEnv cenv{env.kernel, child, {}};
                    persona::Libc cposix(cenv);
                    cposix.execve("/system/bin/sh",
                                  {"sh", target});
                    return 127;
                });
            int status;
            posix.waitpid(pid, &status);
        });
        return 0;
    });
    return ns;
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    ResultTable table("Fig5.process", "ns", false);

    for (SystemConfig config : kAllConfigs) {
        SystemOptions opts;
        opts.config = config;
        CiderSystem sys(opts);
        provisionChildren(sys);

        table.set("fork+exit", config, forkExit(sys));

        bool can_android = config != SystemConfig::IPadMini;
        bool can_ios = runsIosBinaries(config) ||
                       config == SystemConfig::CiderAndroid;
        if (can_android) {
            table.set("fork+exec(android)", config,
                      forkExec(sys, "/system/bin/hello-linux"));
            table.set("fork+sh(android)", config,
                      forkSh(sys, "/system/bin/hello-linux"));
        }
        if (can_ios) {
            table.set("fork+exec(ios)", config,
                      forkExec(sys, "/system/bin/hello-ios"));
            table.set("fork+sh(ios)", config,
                      forkSh(sys, "/system/bin/hello-ios"));
        }
    }

    // The paper normalises the (ios) rows against the vanilla
    // (android) values, since vanilla cannot run them at all.
    if (auto base = table.get("fork+exec(android)",
                              SystemConfig::VanillaAndroid))
        table.setBaseline("fork+exec(ios)", *base);
    if (auto base =
            table.get("fork+sh(android)", SystemConfig::VanillaAndroid))
        table.setBaseline("fork+sh(ios)", *base);

    return reportAndRun(argc, argv, {&table});
}
