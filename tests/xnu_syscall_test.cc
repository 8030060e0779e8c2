/**
 * @file
 * XNU BSD syscall layer tests through libSystem: the wrapper path
 * from Darwin-flavoured calls down to the Linux implementations,
 * plus posix_spawn composition and Darwin errno reporting.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "binfmt/binfmt_registry.h"
#include "hw/device_profile.h"
#include "ios/libsystem.h"
#include "persona/persona.h"
#include "xnu/xnu_signals.h"

namespace cider::ios {
namespace {

using kernel::Persona;

class XnuSyscallTest : public ::testing::Test
{
  protected:
    XnuSyscallTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        proc_ = &kernel_.createProcess("iapp", Persona::Ios);
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<kernel::ThreadScope>(*thread_);
        env_ = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{kernel_, *thread_, {"iapp"}});
        libc_ = std::make_unique<LibSystem>(*env_);
    }

    kernel::Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    kernel::Process *proc_;
    kernel::Thread *thread_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::unique_ptr<binfmt::UserEnv> env_;
    std::unique_ptr<LibSystem> libc_;
};

TEST_F(XnuSyscallTest, FileIoThroughWrappers)
{
    int fd = libc_->open("/tmp/darwin.txt",
                         kernel::oflag::CREAT | kernel::oflag::RDWR);
    ASSERT_GE(fd, 0);
    Bytes data{'o', 'k'};
    EXPECT_EQ(libc_->write(fd, data), 2);
    EXPECT_EQ(libc_->close(fd), 0);

    fd = libc_->open("/tmp/darwin.txt", kernel::oflag::RDONLY);
    Bytes out;
    EXPECT_EQ(libc_->read(fd, out, 8), 2);
    EXPECT_EQ(out, data);
    libc_->close(fd);
}

TEST_F(XnuSyscallTest, ErrnoIsDarwinValuedInIosTls)
{
    EXPECT_EQ(libc_->open("/nope", kernel::oflag::RDONLY), -1);
    EXPECT_EQ(libc_->errno_(), 2); // ENOENT shared

    int fd = libc_->socket();
    EXPECT_EQ(libc_->connect(fd, "/nowhere"), -1);
    EXPECT_EQ(libc_->errno_(), 61); // Darwin ECONNREFUSED (Linux 111)
}

TEST_F(XnuSyscallTest, GetpidAndNull)
{
    EXPECT_EQ(libc_->getpid(), proc_->pid());
    EXPECT_EQ(libc_->nullSyscall(), 0);
}

TEST_F(XnuSyscallTest, PipeSelectThroughXnuNumbers)
{
    int fds[2];
    ASSERT_EQ(libc_->pipe(fds), 0);
    std::vector<int> rd{fds[0]}, wr{fds[1]}, ready;
    EXPECT_EQ(libc_->select(rd, wr, ready), 1); // writable only
    Bytes b{1};
    libc_->write(fds[1], b);
    EXPECT_EQ(libc_->select(rd, wr, ready), 2);
}

TEST_F(XnuSyscallTest, ForkRunsAtforkHandlersAndChargesThem)
{
    int prepares = 0, parents = 0, children = 0;
    for (int i = 0; i < 5; ++i)
        libc_->pthreadAtfork([&] { ++prepares; }, [&] { ++parents; },
                             [&] { ++children; });

    std::uint64_t cost = measureVirtual([&] {
        int pid = libc_->fork([](kernel::Thread &) { return 0; });
        int status;
        libc_->wait4(pid, &status);
    });
    EXPECT_EQ(prepares, 5);
    EXPECT_EQ(parents, 5);
    EXPECT_EQ(children, 5);
    // The parent's own clock carries its 10 prepare/parent handler
    // invocations at ~10 us each (the child's 5 run on the child's
    // clock in parallel virtual time).
    EXPECT_GE(cost, 10 * 10000u);
}

TEST_F(XnuSyscallTest, ExitRunsAtexitHandlersMostRecentFirst)
{
    std::vector<int> order;
    int pid = libc_->fork([&](kernel::Thread &child) -> int {
        binfmt::UserEnv env{kernel_, child, {}};
        LibSystem child_libc(env);
        child_libc.atexit([&] { order.push_back(1); });
        child_libc.atexit([&] { order.push_back(2); });
        child_libc.exit(5);
    });
    int status = 0;
    libc_->wait4(pid, &status);
    EXPECT_EQ(status, 5);
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(XnuSyscallTest, PosixSpawnComposesForkAndExec)
{
    static binfmt::ProgramRegistry programs;
    programs.add("spawned.main", [](binfmt::UserEnv &env) {
        return env.argv.size() >= 2 && env.argv[1] == "hello" ? 11
                                                              : 12;
    });
    kernel_.registerLoader(std::make_unique<binfmt::MachOLoader>(
        programs, binfmt::MachOBootstrap{}));

    binfmt::MachOBuilder builder(binfmt::MachOFileType::Execute);
    builder.entry("spawned.main").segment("__TEXT", 4);
    kernel_.vfs().writeFile("/system/bin/spawned", builder.build());

    int pid = libc_->posixSpawn("/system/bin/spawned", {"spawned", "hello"});
    ASSERT_GT(pid, 0);
    int status = 0;
    EXPECT_GT(libc_->wait4(pid, &status), 0);
    EXPECT_EQ(status, 11);
}

TEST_F(XnuSyscallTest, PsynchSyscallsReachDuctTapedSubsystem)
{
    EXPECT_EQ(libc_->pthreadMutexLock(0xabc), 0);
    EXPECT_EQ(libc_->pthreadMutexUnlock(0xabc), 0);
    // Recursive lock: EDEADLK, translated to Darwin's 11.
    EXPECT_EQ(libc_->pthreadMutexLock(0xabc), 0);
    EXPECT_EQ(libc_->pthreadMutexLock(0xabc), -1);
    EXPECT_EQ(libc_->errno_(), 11); // Darwin EDEADLK
    EXPECT_EQ(libc_->pthreadMutexUnlock(0xabc), 0);
    EXPECT_EQ(psynch_.stats().mutexWaits, 2u);
}

TEST_F(XnuSyscallTest, SigactionTranslatesDarwinNumbers)
{
    int seen = 0;
    // Register for Darwin SIGUSR1 (30).
    EXPECT_EQ(libc_->sigaction(xnu::dsig::USR1,
                               [&](int signo, const kernel::SigInfo &) {
                                   seen = signo;
                               }),
              0);
    // Deliver to self via the Darwin number too.
    EXPECT_EQ(libc_->kill(proc_->pid(), xnu::dsig::USR1), 0);
    EXPECT_EQ(seen, xnu::dsig::USR1);
}

TEST_F(XnuSyscallTest, SigactionBogusDarwinSignalRejected)
{
    EXPECT_EQ(libc_->sigaction(99, nullptr), -1);
    EXPECT_EQ(libc_->errno_(), 22); // EINVAL
}

TEST_F(XnuSyscallTest, MachPortLifecycleViaTraps)
{
    xnu::mach_port_name_t port =
        libc_->machPortAllocate(xnu::PortRight::Receive);
    ASSERT_NE(port, xnu::MACH_PORT_NULL);

    xnu::MachMessage msg;
    msg.header.remotePort = port;
    msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
    msg.header.msgId = 321;
    msg.body = {9};
    ASSERT_EQ(libc_->machMsgSend(msg), xnu::KERN_SUCCESS);

    xnu::MachMessage out;
    ASSERT_EQ(libc_->machMsgReceive(port, out), xnu::KERN_SUCCESS);
    EXPECT_EQ(out.header.msgId, 321);
    EXPECT_EQ(libc_->machPortDestroy(port), xnu::KERN_SUCCESS);

    EXPECT_NE(libc_->machTaskSelf(), xnu::MACH_PORT_NULL);
    EXPECT_NE(libc_->machReplyPort(), xnu::MACH_PORT_NULL);
}

} // namespace
} // namespace cider::ios
