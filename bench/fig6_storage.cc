/**
 * @file
 * Figure 6, group 2: PassMark storage write and read throughput.
 *
 * Expected shape (paper): Cider adds nothing measurable over vanilla
 * Android; storage read is comparable between Cider and the iPad;
 * the iPad mini's flash write path is much faster than the Nexus 7's.
 */

#include "bench/bench_util.h"
#include "persona/libc.h"

namespace cider::bench {
namespace {

constexpr std::size_t kChunk = 8192;
constexpr int kChunks = 256; // 2 MB total

double
storageThroughput(CiderSystem &sys, bool write_test)
{
    std::uint64_t ns = 0;
    std::uint64_t bytes = kChunk * kChunks;
    installAndRun(sys, write_test ? "st_write" : "st_read",
                  [&](binfmt::UserEnv &env) {
                      persona::Libc posix(env);
                      if (write_test) {
                          int fd = posix.open(
                              "/data/storage.bin",
                              kernel::oflag::CREAT |
                                  kernel::oflag::RDWR |
                                  kernel::oflag::TRUNC);
                          Bytes chunk(kChunk, 0xcd);
                          ns = measureVirtual([&] {
                              for (int i = 0; i < kChunks; ++i)
                                  posix.write(fd, chunk);
                          });
                          posix.close(fd);
                      } else {
                          int fd = posix.open("/data/storage.bin",
                                              kernel::oflag::RDONLY);
                          Bytes buf;
                          ns = measureVirtual([&] {
                              for (int i = 0; i < kChunks; ++i)
                                  posix.read(fd, buf, kChunk);
                          });
                          posix.close(fd);
                      }
                      return 0;
                  });
    return ns > 0 ? static_cast<double>(bytes) * 1e9 /
                        static_cast<double>(ns)
                  : 0;
}

} // namespace
} // namespace cider::bench

int
main(int argc, char **argv)
{
    using namespace cider;
    using namespace cider::bench;
    setLogQuiet(true);

    ResultTable table("Fig6.storage", "bytes/s", true);
    for (SystemConfig config : kAllConfigs) {
        SystemOptions opts;
        opts.config = config;
        CiderSystem sys(opts);
        table.set("storage-write", config,
                  storageThroughput(sys, true));
        table.set("storage-read", config,
                  storageThroughput(sys, false));
    }
    return reportAndRun(argc, argv, {&table});
}
