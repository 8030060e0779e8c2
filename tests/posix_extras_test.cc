/**
 * @file
 * Tests for the wider POSIX surface (lseek, stat, rename, dup2,
 * getppid) through the libc of both personas on a booted Cider system
 * — confirming the XNU ABI and the Linux implementations agree.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/cider_system.h"
#include "persona/libc.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

class PosixExtras : public ::testing::TestWithParam<bool>
{
  protected:
    PosixExtras()
    {
        SystemOptions opts;
        opts.config = SystemConfig::CiderIos;
        sys_ = std::make_unique<CiderSystem>(opts);
    }

    /** Run fn in a process of the parameterised persona. */
    int
    run(const std::function<int(binfmt::UserEnv &)> &fn)
    {
        bool ios = GetParam();
        return sys_->runInProcess("extras",
                                  ios ? kernel::Persona::Ios
                                      : kernel::Persona::Android,
                                  fn);
    }

    std::unique_ptr<CiderSystem> sys_;
};

int
lseekBody(binfmt::UserEnv &env)
{
    persona::Libc libc(env);
    int fd = libc.open("/tmp/seek.bin",
                       kernel::oflag::CREAT | kernel::oflag::RDWR);
    if (fd < 0)
        return 1;
    Bytes data{10, 20, 30, 40, 50};
    libc.write(fd, data);
    if (libc.lseek(fd, 1, kernel::seekw::SET) != 1)
        return 2;
    Bytes out;
    libc.read(fd, out, 2);
    if (out != Bytes({20, 30}))
        return 3;
    if (libc.lseek(fd, -1, kernel::seekw::END) != 4)
        return 4;
    libc.read(fd, out, 8);
    if (out != Bytes({50}))
        return 5;
    if (libc.lseek(fd, 2, kernel::seekw::CUR) != 7)
        return 6;
    if (libc.lseek(fd, -99, kernel::seekw::SET) != -1)
        return 7;
    // Pipes are not seekable.
    int fds[2];
    libc.pipe(fds);
    if (libc.lseek(fds[0], 0, kernel::seekw::SET) != -1)
        return 8;
    return 0;
}

int
statRenameBody(binfmt::UserEnv &env)
{
    persona::Libc libc(env);
    int fd = libc.open("/tmp/old.bin",
                       kernel::oflag::CREAT | kernel::oflag::RDWR);
    Bytes data(123, 7);
    libc.write(fd, data);
    libc.close(fd);

    kernel::StatBuf st;
    if (libc.stat("/tmp/old.bin", &st) != 0)
        return 1;
    if (st.size != 123 || st.type != kernel::InodeType::Regular)
        return 2;
    if (libc.stat("/tmp", &st) != 0 ||
        st.type != kernel::InodeType::Directory)
        return 3;
    if (libc.stat("/ghost", &st) == 0)
        return 4;

    if (libc.rename("/tmp/old.bin", "/tmp/new.bin") != 0)
        return 5;
    if (libc.stat("/tmp/old.bin", &st) == 0)
        return 6;
    if (libc.stat("/tmp/new.bin", &st) != 0 || st.size != 123)
        return 7;
    if (libc.rename("/ghost", "/tmp/x") == 0)
        return 8;
    return 0;
}

int
dup2Body(binfmt::UserEnv &env)
{
    persona::Libc libc(env);
    int fd = libc.open("/tmp/d2.bin",
                       kernel::oflag::CREAT | kernel::oflag::RDWR);
    if (libc.dup2(fd, 77) != 77)
        return 1;
    Bytes data{1};
    if (libc.write(77, data) != 1)
        return 2;
    // Re-dup onto an open descriptor silently closes it first.
    if (libc.dup2(fd, 77) != 77)
        return 3;
    if (libc.dup2(fd, fd) != fd)
        return 4;
    if (libc.dup2(999, 5) != -1)
        return 5;
    return 0;
}

int
getppidBody(binfmt::UserEnv &env)
{
    persona::Libc libc(env);
    int self = libc.getpid();
    int result = -1;
    int pid = libc.fork([&](kernel::Thread &child) -> int {
        binfmt::UserEnv cenv{env.kernel, child, {}};
        persona::Libc clibc(cenv);
        return clibc.getppid();
    });
    libc.waitpid(pid, &result);
    return result == self ? 0 : 1;
}

TEST_P(PosixExtras, Lseek)
{
    EXPECT_EQ(run(lseekBody), 0);
}

TEST_P(PosixExtras, StatAndRename)
{
    EXPECT_EQ(run(statRenameBody), 0);
}

TEST_P(PosixExtras, Dup2)
{
    EXPECT_EQ(run(dup2Body), 0);
}

TEST_P(PosixExtras, Getppid)
{
    EXPECT_EQ(run(getppidBody), 0);
}

INSTANTIATE_TEST_SUITE_P(BothPersonas, PosixExtras,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "ios" : "android";
                         });

} // namespace
} // namespace cider
