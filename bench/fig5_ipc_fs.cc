/**
 * @file
 * Figure 5, group 5: local communication and filesystem latency —
 * pipe, AF_UNIX, select over 10-250 descriptors, and 0 KB / 10 KB
 * file create+delete.
 *
 * Expected shape (paper): the three Android-device configurations are
 * nearly identical; the iPad mini is markedly worse in several tests,
 * its select() cost grows linearly with descriptor count, and select
 * of 250 descriptors fails outright.
 */

#include "bench/bench_util.h"
#include "persona/libc.h"

namespace cider::bench {
namespace {

constexpr int kIters = 300;

std::uint64_t
pipeLatency(persona::Libc &posix)
{
    int fds[2];
    posix.pipe(fds);
    Bytes token{1};
    Bytes buf;
    return measureVirtual([&] {
        for (int i = 0; i < kIters; ++i) {
            posix.write(fds[1], token);
            posix.read(fds[0], buf, 1);
        }
    });
}

std::uint64_t
unixLatency(persona::Libc &posix)
{
    int fds[2];
    posix.socketpair(fds);
    Bytes token{1};
    Bytes buf;
    return measureVirtual([&] {
        for (int i = 0; i < kIters; ++i) {
            posix.write(fds[0], token);
            posix.read(fds[1], buf, 1);
        }
    });
}

/** @return latency, or 0 when select() failed (iPad at 250 fds). */
std::uint64_t
selectLatency(persona::Libc &posix, int nfds, bool *failed)
{
    std::vector<int> watch;
    for (int i = 0; i < (nfds + 1) / 2; ++i) {
        int fds[2];
        posix.pipe(fds);
        watch.push_back(fds[0]);
        watch.push_back(fds[1]);
    }
    watch.resize(static_cast<std::size_t>(nfds));
    std::vector<int> none, ready;
    *failed = false;
    std::uint64_t ns = measureVirtual([&] {
        for (int i = 0; i < kIters; ++i) {
            if (posix.select(watch, none, ready) < 0) {
                *failed = true;
                return;
            }
        }
    });
    return *failed ? 0 : ns;
}

std::uint64_t
fileCreateDelete(persona::Libc &posix, std::size_t bytes)
{
    Bytes payload(bytes, 0x77);
    return measureVirtual([&] {
        for (int i = 0; i < kIters; ++i) {
            int fd = posix.open("/tmp/scratch",
                                kernel::oflag::CREAT |
                                    kernel::oflag::RDWR |
                                    kernel::oflag::TRUNC);
            if (bytes > 0)
                posix.write(fd, payload);
            posix.close(fd);
            posix.unlink("/tmp/scratch");
        }
    });
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    ResultTable table("Fig5.ipc-fs", "ns/op", false);

    for (SystemConfig config : kAllConfigs) {
        SystemOptions opts;
        opts.config = config;
        CiderSystem sys(opts);

        installAndRun(sys, "ipcfs", [&](binfmt::UserEnv &env) {
            persona::Libc posix(env);
            table.set("pipe", config,
                      static_cast<double>(pipeLatency(posix)) /
                          kIters);
            table.set("AF_UNIX", config,
                      static_cast<double>(unixLatency(posix)) /
                          kIters);
            for (int nfds : {10, 50, 100, 250}) {
                bool failed = false;
                std::uint64_t ns =
                    selectLatency(posix, nfds, &failed);
                std::string row =
                    "select-" + std::to_string(nfds) + "fd";
                if (failed)
                    table.setFailed(row, config);
                else
                    table.set(row, config,
                              static_cast<double>(ns) / kIters);
            }
            table.set("file-create-0k", config,
                      static_cast<double>(fileCreateDelete(posix, 0)) /
                          kIters);
            table.set(
                "file-create-10k", config,
                static_cast<double>(fileCreateDelete(posix, 10240)) /
                    kIters);
            return 0;
        });
    }

    return reportAndRun(argc, argv, {&table});
}
