/**
 * @file
 * Figure 5, group 2: syscall and signal-handler latency — null
 * syscall, read, write, open/close, and same-process signal delivery.
 *
 * Expected shape (paper): Cider's persona check costs ~8.5% on the
 * null syscall for Linux binaries and ~40% for iOS binaries; both
 * overheads disappear into the noise once the syscall does real work;
 * signal delivery costs +3% / +25%; the iPad mini is far slower on
 * signals (~175% over Cider/iOS) and on the worked syscalls.
 */

#include "bench/bench_util.h"
#include "persona/libc.h"
#include "xnu/xnu_signals.h"

namespace cider::bench {
namespace {

constexpr int kIters = 500;

using Workload = std::function<void(persona::Libc &, binfmt::UserEnv &)>;

void
nullBody(persona::Libc &posix, binfmt::UserEnv &)
{
    for (int i = 0; i < kIters; ++i)
        posix.nullSyscall();
}

void
readBody(persona::Libc &posix, binfmt::UserEnv &)
{
    int fd = posix.open("/tmp/readfile", kernel::oflag::RDONLY);
    Bytes buf;
    for (int i = 0; i < kIters; ++i) {
        posix.read(fd, buf, 4096);
        if (buf.empty()) {
            posix.close(fd);
            fd = posix.open("/tmp/readfile", kernel::oflag::RDONLY);
        }
    }
    posix.close(fd);
}

void
writeBody(persona::Libc &posix, binfmt::UserEnv &)
{
    int fd = posix.open("/tmp/writefile",
                        kernel::oflag::CREAT | kernel::oflag::RDWR);
    Bytes chunk(4096, 0x5a);
    for (int i = 0; i < kIters; ++i)
        posix.write(fd, chunk);
    posix.close(fd);
}

void
openCloseBody(persona::Libc &posix, binfmt::UserEnv &)
{
    for (int i = 0; i < kIters; ++i) {
        int fd = posix.open("/tmp/ocfile", kernel::oflag::RDONLY);
        posix.close(fd);
    }
}

/** SIGUSR1 in the numbering of the calling thread's persona. */
int
sigUsr1(const binfmt::UserEnv &env)
{
    return env.thread.persona() == kernel::Persona::Ios
               ? xnu::dsig::USR1
               : kernel::lsig::USR1;
}

void
signalBody(persona::Libc &posix, binfmt::UserEnv &env)
{
    // lmbench's signal-handler benchmark: install a handler, deliver
    // to self, measure the round trip.
    volatile int hits = 0;
    posix.sigaction(sigUsr1(env),
                    [&hits](int, const kernel::SigInfo &) {
                        hits = hits + 1;
                    });
    int self = posix.getpid();
    for (int i = 0; i < kIters; ++i)
        posix.kill(self, sigUsr1(env));
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    const std::vector<std::pair<std::string, Workload>> tests = {
        {"null-syscall", nullBody},
        {"read", readBody},
        {"write", writeBody},
        {"open/close", openCloseBody},
        {"signal-handler", signalBody},
    };

    ResultTable table("Fig5.syscall-signal", "ns/op", false);
    for (const auto &[name, body] : tests) {
        for (SystemConfig config : kAllConfigs) {
            // Pre-provision files the workloads expect.
            SystemOptions opts;
            opts.config = config;
            CiderSystem sys(opts);
            sys.kernel().vfs().writeFile("/tmp/readfile",
                                         Bytes(64 * 1024, 1));
            sys.kernel().vfs().writeFile("/tmp/ocfile", Bytes(16, 1));

            std::uint64_t total_ns = 0;
            installAndRun(sys, "sys_" + name,
                          [&](binfmt::UserEnv &env) {
                              persona::Libc posix(env);
                              sys.trapStats().reset();
                              total_ns = measureVirtual(
                                  [&] { body(posix, env); });
                              return 0;
                          });
            table.set(name, config,
                      static_cast<double>(total_ns) / kIters);
            // Per-syscall attribution for the persona-check rows.
            if (name == "null-syscall" &&
                config != SystemConfig::VanillaAndroid)
                printTrapBreakdown(
                    sys, name + " on " +
                             core::systemConfigName(config));
        }
    }

    return reportAndRun(argc, argv, {&table});
}
