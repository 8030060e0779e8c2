/**
 * @file
 * bionic (domestic libc) tests: Linux calling convention, errno in
 * the android TLS area, atexit/atfork registries, and the wrapper
 * path through the Linux dispatch table.
 */

#include <gtest/gtest.h>

#include "android/bionic.h"
#include "hw/device_profile.h"
#include "persona/tls.h"

namespace cider::android {
namespace {

class BionicTest : public ::testing::Test
{
  protected:
    BionicTest() : kernel_(hw::DeviceProfile::nexus7())
    {
        proc_ = &kernel_.createProcess("droid");
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<kernel::ThreadScope>(*thread_);
        env_ = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{kernel_, *thread_, {"droid"}});
        libc_ = std::make_unique<Bionic>(*env_);
    }

    kernel::Kernel kernel_;
    kernel::Process *proc_;
    kernel::Thread *thread_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::unique_ptr<binfmt::UserEnv> env_;
    std::unique_ptr<Bionic> libc_;
};

TEST_F(BionicTest, FileIoAndDirs)
{
    EXPECT_EQ(libc_->mkdir("/data/app"), 0);
    int fd = libc_->open("/data/app/state",
                         kernel::oflag::CREAT | kernel::oflag::RDWR);
    ASSERT_GE(fd, 0);
    Bytes payload{1, 2, 3};
    EXPECT_EQ(libc_->write(fd, payload), 3);
    EXPECT_EQ(libc_->close(fd), 0);
    EXPECT_EQ(libc_->unlink("/data/app/state"), 0);
    EXPECT_EQ(libc_->rmdir("/data/app"), 0);
}

TEST_F(BionicTest, ErrnoLandsInAndroidTls)
{
    EXPECT_EQ(libc_->open("/missing", kernel::oflag::RDONLY), -1);
    EXPECT_EQ(libc_->errno_(), kernel::lnx::NOENT);
    // And it sits in the *android* TLS area, not the iOS one.
    persona::ThreadTls &tls = persona::ThreadTls::of(*thread_);
    EXPECT_EQ(tls.area(kernel::Persona::Android).errnoValue(),
              kernel::lnx::NOENT);
    EXPECT_EQ(tls.area(kernel::Persona::Ios).errnoValue(), 0);
}

TEST_F(BionicTest, ForkRunsAtforkTriples)
{
    std::vector<std::string> order;
    libc_->pthreadAtfork([&] { order.push_back("prepare"); },
                         [&] { order.push_back("parent"); },
                         [&] { order.push_back("child"); });
    int pid = libc_->fork([](kernel::Thread &) { return 3; });
    ASSERT_GT(pid, 0);
    int status = 0;
    EXPECT_EQ(libc_->waitpid(pid, &status), pid);
    EXPECT_EQ(status, 3);
    EXPECT_EQ(order, (std::vector<std::string>{"prepare", "child",
                                               "parent"}));
}

TEST_F(BionicTest, ExitRunsAtexitHandlers)
{
    int ran = 0;
    int pid = libc_->fork([&](kernel::Thread &child) -> int {
        binfmt::UserEnv cenv{kernel_, child, {}};
        Bionic clibc(cenv);
        clibc.atexit([&] { ++ran; });
        clibc.atexit([&] { ++ran; });
        clibc.exit(9);
    });
    int status;
    libc_->waitpid(pid, &status);
    EXPECT_EQ(status, 9);
    EXPECT_EQ(ran, 2);
}

TEST_F(BionicTest, SignalsViaLinuxNumbers)
{
    int seen = 0;
    EXPECT_EQ(libc_->sigaction(kernel::lsig::USR1,
                               [&](int s, const kernel::SigInfo &) {
                                   seen = s;
                               }),
              0);
    EXPECT_EQ(libc_->kill(libc_->getpid(), kernel::lsig::USR1), 0);
    EXPECT_EQ(seen, kernel::lsig::USR1);
}

TEST_F(BionicTest, SocketPath)
{
    int listen_fd = libc_->socket();
    ASSERT_GE(listen_fd, 0);
    ASSERT_EQ(libc_->bind(listen_fd, "/dev/socket/test"), 0);
    ASSERT_EQ(libc_->listen(listen_fd, 1), 0);
    int client = libc_->socket();
    ASSERT_EQ(libc_->connect(client, "/dev/socket/test"), 0);
    int server = libc_->accept(listen_fd);
    ASSERT_GE(server, 0);
    Bytes ping{'x'};
    EXPECT_EQ(libc_->write(client, ping), 1);
    Bytes out;
    EXPECT_EQ(libc_->read(server, out, 4), 1);
}

TEST_F(BionicTest, NullSyscallChargesBaseline)
{
    std::uint64_t ns =
        measureVirtual([&] { libc_->nullSyscall(); });
    const auto &p = kernel_.profile();
    EXPECT_EQ(ns, p.trapEnterExitNs + p.nullSyscallWorkNs);
}

} // namespace
} // namespace cider::android
