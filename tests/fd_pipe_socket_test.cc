/**
 * @file
 * Descriptor-table, pipe, and UNIX-socket tests on the simulated
 * kernel, driven through the typed syscall layer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "hw/device_profile.h"
#include "kernel/kernel.h"
#include "kernel/pipe.h"

namespace cider::kernel {
namespace {

class KernelFixture : public ::testing::Test
{
  protected:
    KernelFixture() : kernel_(hw::DeviceProfile::nexus7())
    {
        proc_ = &kernel_.createProcess("test");
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<ThreadScope>(*thread_);
    }

    Kernel kernel_;
    Process *proc_;
    Thread *thread_;
    std::unique_ptr<ThreadScope> scope_;
};

using FdPipeSocketTest = KernelFixture;

TEST_F(FdPipeSocketTest, OpenReadWriteRoundTrip)
{
    SyscallResult r = kernel_.sysOpen(
        *thread_, "/tmp/f", oflag::CREAT | oflag::RDWR);
    ASSERT_TRUE(r.ok());
    Fd fd = static_cast<Fd>(r.value);

    Bytes data{5, 6, 7};
    EXPECT_EQ(kernel_.sysWrite(*thread_, fd, data).value, 3);
    EXPECT_TRUE(kernel_.sysClose(*thread_, fd).ok());

    r = kernel_.sysOpen(*thread_, "/tmp/f", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    fd = static_cast<Fd>(r.value);
    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, fd, out, 16).value, 3);
    EXPECT_EQ(out, data);
    // EOF.
    EXPECT_EQ(kernel_.sysRead(*thread_, fd, out, 16).value, 0);
}

TEST_F(FdPipeSocketTest, WriteToReadOnlyFdFails)
{
    kernel_.vfs().writeFile("/tmp/ro", {1});
    SyscallResult r = kernel_.sysOpen(*thread_, "/tmp/ro", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    Bytes data{9};
    EXPECT_EQ(kernel_.sysWrite(*thread_, static_cast<Fd>(r.value),
                               data)
                  .err,
              lnx::BADF);
}

TEST_F(FdPipeSocketTest, BadFdErrors)
{
    Bytes buf;
    EXPECT_EQ(kernel_.sysRead(*thread_, 42, buf, 1).err, lnx::BADF);
    EXPECT_EQ(kernel_.sysClose(*thread_, 42).err, lnx::BADF);
    EXPECT_EQ(kernel_.sysDup(*thread_, 42).err, lnx::BADF);
}

TEST_F(FdPipeSocketTest, DupSharesOffset)
{
    kernel_.vfs().writeFile("/tmp/d", {1, 2, 3, 4});
    Fd fd = static_cast<Fd>(
        kernel_.sysOpen(*thread_, "/tmp/d", oflag::RDONLY).value);
    Fd dup_fd = static_cast<Fd>(kernel_.sysDup(*thread_, fd).value);
    Bytes out;
    kernel_.sysRead(*thread_, fd, out, 2);
    kernel_.sysRead(*thread_, dup_fd, out, 2);
    EXPECT_EQ(out, (Bytes{3, 4})); // dup continued where fd left off
}

TEST_F(FdPipeSocketTest, PipeTransfersBytesInOrder)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysPipe(*thread_, fds).ok());
    Bytes msg{1, 2, 3, 4, 5};
    EXPECT_EQ(kernel_.sysWrite(*thread_, fds[1], msg).value, 5);
    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[0], out, 3).value, 3);
    EXPECT_EQ(out, (Bytes{1, 2, 3}));
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[0], out, 3).value, 2);
    EXPECT_EQ(out, (Bytes{4, 5}));
}

TEST_F(FdPipeSocketTest, PipeEofAfterWriterCloses)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysPipe(*thread_, fds).ok());
    kernel_.sysClose(*thread_, fds[1]);
    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[0], out, 8).value, 0);
}

TEST_F(FdPipeSocketTest, WriteToClosedPipeRaisesEpipeAndSigpipe)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysPipe(*thread_, fds).ok());

    int sigpipe_seen = 0;
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [&](int signo, const SigInfo &) {
        if (signo == lsig::PIPE)
            ++sigpipe_seen;
    };
    kernel_.sysSigaction(*thread_, lsig::PIPE, act);

    kernel_.sysClose(*thread_, fds[0]);
    Bytes data{1};
    EXPECT_EQ(kernel_.sysWrite(*thread_, fds[1], data).err, lnx::PIPE);
    EXPECT_EQ(sigpipe_seen, 1);
}

TEST_F(FdPipeSocketTest, PipeBlocksReaderUntilWriterDelivers)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysPipe(*thread_, fds).ok());

    Process &writer_proc = kernel_.createProcess("writer");
    std::thread writer([&] {
        ThreadScope scope(writer_proc.mainThread());
        // The fds live in the reader's table; poke the pipe directly
        // through a dup'ed description in this process.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        Bytes data{42};
        kernel_.sysWrite(*thread_, fds[1], data);
    });
    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[0], out, 1).value, 1);
    EXPECT_EQ(out, Bytes{42});
    writer.join();
}

TEST_F(FdPipeSocketTest, ThreadsOfOneProcessShareTheTableSafely)
{
    // An iOS app's main thread and its event pump: two host threads,
    // each running its own thread of one process, open and close
    // descriptors at once. No fd may be handed out twice while it is
    // open, and every one comes back.
    kernel_.vfs().writeFile("/tmp/shared", Bytes{1});
    Thread &second = proc_->createThread(Persona::Android);
    const int baseline = proc_->fds().openCount();
    constexpr int kRounds = 2000;
    constexpr int kHeld = 4;
    std::vector<std::atomic<int>> holder(256);
    std::atomic<int> clashes{0};

    auto churn = [&](Thread &t, int me) {
        ThreadScope scope(t);
        for (int round = 0; round < kRounds; ++round) {
            Fd held[kHeld];
            for (Fd &fd : held) {
                fd = static_cast<Fd>(
                    kernel_.sysOpen(t, "/tmp/shared", oflag::RDONLY).value);
                if (fd < 0 || fd >= static_cast<Fd>(holder.size()) ||
                    holder[static_cast<std::size_t>(fd)].exchange(me) != 0)
                    ++clashes;
            }
            for (Fd fd : held) {
                if (fd >= 0 && fd < static_cast<Fd>(holder.size()))
                    holder[static_cast<std::size_t>(fd)].store(0);
                kernel_.sysClose(t, fd);
            }
        }
    };
    std::thread pump(churn, std::ref(second), 2);
    churn(*thread_, 1);
    pump.join();

    EXPECT_EQ(clashes.load(), 0);
    EXPECT_EQ(proc_->fds().openCount(), baseline);
}

TEST_F(FdPipeSocketTest, SocketpairBidirectional)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysSocketpair(*thread_, fds).ok());
    Bytes ping{'p'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, fds[0], ping).value, 1);
    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[1], out, 8).value, 1);
    Bytes pong{'q'};
    EXPECT_EQ(kernel_.sysWrite(*thread_, fds[1], pong).value, 1);
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[0], out, 8).value, 1);
    EXPECT_EQ(out, Bytes{'q'});
}

TEST_F(FdPipeSocketTest, UnixPeerCloseDrainsToEofAndRaisesEpipe)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysSocketpair(*thread_, fds).ok());

    int sigpipe_seen = 0;
    SignalAction act;
    act.kind = SignalAction::Kind::Handler;
    act.fn = [&](int signo, const SigInfo &) {
        if (signo == lsig::PIPE)
            ++sigpipe_seen;
    };
    kernel_.sysSigaction(*thread_, lsig::PIPE, act);

    Bytes msg{7, 8};
    ASSERT_EQ(kernel_.sysWrite(*thread_, fds[0], msg).value, 2);
    ASSERT_TRUE(kernel_.sysClose(*thread_, fds[0]).ok());

    // The survivor polls readable (queued bytes, then EOF) and never
    // writable.
    std::vector<Fd> survivor{fds[1]};
    std::vector<Fd> ready;
    EXPECT_EQ(kernel_.sysSelect(*thread_, survivor, survivor, ready).value,
              1);
    EXPECT_EQ(ready, survivor);

    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[1], out, 8).value, 2);
    EXPECT_EQ(out, msg);
    EXPECT_EQ(kernel_.sysRead(*thread_, fds[1], out, 8).value, 0);
    EXPECT_EQ(kernel_.sysSelect(*thread_, survivor, survivor, ready).value,
              1);
    EXPECT_EQ(ready, survivor);

    EXPECT_EQ(kernel_.sysWrite(*thread_, fds[1], msg).err, lnx::PIPE);
    EXPECT_EQ(sigpipe_seen, 1);
}

TEST_F(FdPipeSocketTest, NamedSocketConnectAcceptFlow)
{
    Fd listen_fd =
        static_cast<Fd>(kernel_.sysSocket(*thread_).value);
    ASSERT_TRUE(
        kernel_.sysBind(*thread_, listen_fd, "/dev/socket/svc").ok());
    ASSERT_TRUE(kernel_.sysListen(*thread_, listen_fd, 2).ok());

    Fd client_fd =
        static_cast<Fd>(kernel_.sysSocket(*thread_).value);
    ASSERT_TRUE(
        kernel_.sysConnect(*thread_, client_fd, "/dev/socket/svc").ok());

    SyscallResult r = kernel_.sysAccept(*thread_, listen_fd);
    ASSERT_TRUE(r.ok());
    Fd server_fd = static_cast<Fd>(r.value);

    Bytes hello{'h', 'i'};
    kernel_.sysWrite(*thread_, client_fd, hello);
    Bytes out;
    EXPECT_EQ(kernel_.sysRead(*thread_, server_fd, out, 8).value, 2);
    EXPECT_EQ(out, hello);
}

TEST_F(FdPipeSocketTest, ConnectToMissingPathRefused)
{
    Fd fd = static_cast<Fd>(kernel_.sysSocket(*thread_).value);
    EXPECT_EQ(kernel_.sysConnect(*thread_, fd, "/no/such").err,
              lnx::CONNREFUSED);
}

TEST_F(FdPipeSocketTest, BindTwiceIsAddrInUse)
{
    Fd a = static_cast<Fd>(kernel_.sysSocket(*thread_).value);
    Fd b = static_cast<Fd>(kernel_.sysSocket(*thread_).value);
    ASSERT_TRUE(kernel_.sysBind(*thread_, a, "/dev/socket/x").ok());
    EXPECT_EQ(kernel_.sysBind(*thread_, b, "/dev/socket/x").err,
              lnx::ADDRINUSE);
}

TEST_F(FdPipeSocketTest, SelectReportsReadiness)
{
    Fd fds[2];
    ASSERT_TRUE(kernel_.sysPipe(*thread_, fds).ok());
    std::vector<Fd> rd{fds[0]};
    std::vector<Fd> wr{fds[1]};
    std::vector<Fd> ready;

    // Empty pipe: writable only.
    EXPECT_EQ(kernel_.sysSelect(*thread_, rd, wr, ready).value, 1);
    EXPECT_EQ(ready, std::vector<Fd>{fds[1]});

    Bytes b{1};
    kernel_.sysWrite(*thread_, fds[1], b);
    EXPECT_EQ(kernel_.sysSelect(*thread_, rd, wr, ready).value, 2);
}

TEST_F(FdPipeSocketTest, SelectCostScalesPerFd)
{
    std::vector<Fd> fds;
    for (int i = 0; i < 64; ++i) {
        Fd pair_fds[2];
        ASSERT_TRUE(kernel_.sysPipe(*thread_, pair_fds).ok());
        fds.push_back(pair_fds[0]);
    }
    std::vector<Fd> none, ready;
    std::vector<Fd> ten(fds.begin(), fds.begin() + 10);

    std::uint64_t t10 = measureVirtual(
        [&] { kernel_.sysSelect(*thread_, ten, none, ready); });
    std::uint64_t t64 = measureVirtual(
        [&] { kernel_.sysSelect(*thread_, fds, none, ready); });
    const auto &p = kernel_.profile();
    EXPECT_EQ(t64 - t10, 54 * p.selectPerFdNs);
}

} // namespace
} // namespace cider::kernel
