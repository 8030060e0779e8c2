/**
 * @file
 * Dispatch-parity property test: a syscall registered in both the
 * Linux and XNU-BSD tables must produce the same result for the same
 * arguments — the XNU entries are thin wrappers over the same Linux
 * implementations (paper section 4.1), so divergence means a wrapper
 * dropped or reordered an argument.
 *
 * Two freshly booted kernels run the identical operation sequence,
 * one through the Linux trap class as Android, one through the XNU
 * BSD trap class as iOS. Return values must match exactly; errno must
 * match through the documented Linux->Darwin translation. A table
 * check pins which Linux entry serves each XNU BSD number, and under
 * which Darwin name.
 *
 * The argument contract both tables share is pinned here too: an
 * argument list holds at most six arguments inline and lends the
 * caller's strings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "base/rng.h"
#include "hw/device_profile.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/xnu_signals.h"

namespace cider::kernel {
namespace {

using persona::PersonaManager;

/** Whether makeArgs compiles with an argument of type @p A. */
template <typename A>
constexpr bool kMakeArgsTakes = requires { makeArgs(std::declval<A>()); };

// A string argument is a view of the caller's string, so a temporary
// one (makeArgs(std::string{})) is refused at compile time: it would
// die before a kept argument list is read. The list owns no heap
// memory.
static_assert(!kMakeArgsTakes<std::string>);
static_assert(kMakeArgsTakes<std::string &>);
static_assert(kMakeArgsTakes<const std::string &>);
static_assert(kMakeArgsTakes<const char *>);
static_assert(std::is_trivially_copyable_v<SyscallArgs>);

/** One kernel plus the persona stack, trapping via one trap class. */
struct World
{
    World(Persona persona, TrapClass cls)
        : kernel(hw::DeviceProfile::nexus7()),
          mgr(kernel, ipc, psynch), cls(cls)
    {
        mgr.install();
        proc = &kernel.createProcess("app", persona);
    }

    SyscallResult
    trap(int nr, SyscallArgs args)
    {
        Thread &t = proc->mainThread();
        ThreadScope scope(t);
        return kernel.trap(t, cls, nr, std::move(args));
    }

    Kernel kernel;
    xnu::MachIpc ipc;
    xnu::PsynchSubsystem psynch;
    PersonaManager mgr;
    TrapClass cls;
    Process *proc = nullptr;
};

class DispatchParityTest : public ::testing::Test
{
  protected:
    DispatchParityTest()
        : linux_(Persona::Android, TrapClass::LinuxSyscall),
          xnu_(Persona::Ios, TrapClass::XnuBsd)
    {}

    /**
     * Run (linux_nr, xnu_nr) with the same args in both worlds and
     * require value parity and translated-errno parity.
     */
    std::pair<SyscallResult, SyscallResult>
    both(int linux_nr, int xnu_nr, const SyscallArgs &args)
    {
        SyscallArgs a = args, b = args;
        SyscallResult lr = linux_.trap(linux_nr, std::move(a));
        SyscallResult xr = xnu_.trap(xnu_nr, std::move(b));
        EXPECT_EQ(lr.value, xr.value)
            << "value diverged for linux nr " << linux_nr << " / xnu nr "
            << xnu_nr;
        EXPECT_EQ(xnu::linuxErrnoToXnu(lr.err), xr.err)
            << "errno diverged for linux nr " << linux_nr << " / xnu nr "
            << xnu_nr;
        return {lr, xr};
    }

    World linux_;
    World xnu_;
};

TEST_F(DispatchParityTest, FileLifecycleParity)
{
    both(sysno::MKDIR, xnu::xnuno::MKDIR,
         makeArgs("/tmp"));
    auto [open_l, open_x] =
        both(sysno::OPEN, xnu::xnuno::OPEN,
             makeArgs("/tmp/f",
                      static_cast<std::int64_t>(oflag::CREAT |
                                                oflag::RDWR)));
    ASSERT_TRUE(open_l.ok());
    std::int64_t fd = open_l.value;

    Bytes payload = {'p', 'a', 'r', 'i', 't', 'y'};
    both(sysno::WRITE, xnu::xnuno::WRITE,
         makeArgs(fd, static_cast<const Bytes *>(&payload)));
    both(sysno::LSEEK, xnu::xnuno::LSEEK,
         makeArgs(fd, std::int64_t{0}, std::int64_t{0}));

    Bytes lbuf, xbuf;
    SyscallResult lr = linux_.trap(
        sysno::READ, makeArgs(fd, &lbuf, std::uint64_t{6}));
    SyscallResult xr = xnu_.trap(
        xnu::xnuno::READ, makeArgs(fd, &xbuf, std::uint64_t{6}));
    EXPECT_EQ(lr.value, xr.value);
    EXPECT_EQ(lbuf, xbuf);

    both(sysno::CLOSE, xnu::xnuno::CLOSE, makeArgs(fd));
    both(sysno::UNLINK, xnu::xnuno::UNLINK,
         makeArgs("/tmp/f"));
}

TEST_F(DispatchParityTest, FdManagementParity)
{
    auto [open_l, open_x] =
        both(sysno::OPEN, xnu::xnuno::OPEN,
             makeArgs("/dup-me",
                      static_cast<std::int64_t>(oflag::CREAT |
                                                oflag::RDWR)));
    ASSERT_TRUE(open_l.ok());
    std::int64_t fd = open_l.value;
    both(sysno::DUP, xnu::xnuno::DUP, makeArgs(fd));
    both(sysno::DUP2, xnu::xnuno::DUP2, makeArgs(fd, std::int64_t{9}));

    Fd lfds[2] = {-1, -1}, xfds[2] = {-1, -1};
    SyscallResult lr = linux_.trap(
        sysno::PIPE, makeArgs(static_cast<void *>(lfds)));
    SyscallResult xr = xnu_.trap(
        xnu::xnuno::PIPE, makeArgs(static_cast<void *>(xfds)));
    EXPECT_EQ(lr.value, xr.value);
    EXPECT_EQ(lfds[0], xfds[0]);
    EXPECT_EQ(lfds[1], xfds[1]);
}

TEST_F(DispatchParityTest, ErrorPathParity)
{
    // ENOENT open.
    both(sysno::OPEN, xnu::xnuno::OPEN,
         makeArgs("/absent",
                  static_cast<std::int64_t>(oflag::RDONLY)));
    // EBADF on every fd-taking call.
    both(sysno::CLOSE, xnu::xnuno::CLOSE, makeArgs(std::int64_t{42}));
    both(sysno::DUP, xnu::xnuno::DUP, makeArgs(std::int64_t{42}));
    Bytes buf;
    both(sysno::READ, xnu::xnuno::READ,
         makeArgs(std::int64_t{42}, &buf, std::uint64_t{8}));
    // ENOTEMPTY-style directory errors.
    both(sysno::RMDIR, xnu::xnuno::RMDIR,
         makeArgs("/nonexistent-dir"));
}

TEST(SyscallArgsTest, StringArgumentViewsTheCallersBytes)
{
    const std::string path = "/a/path/beyond/the/small/string/buffer";
    SyscallArgs args = makeArgs(path, std::int64_t{oflag::RDONLY});
    EXPECT_EQ(args.str(0).data(), path.data());
    EXPECT_EQ(args.str(0), path);
    EXPECT_EQ(args.size(), 2u);
}

TEST(SyscallArgsTest, SixArgumentsFitAndKeepTheirTypes)
{
    static_assert(kMaxSyscallArgs == 6);
    Bytes out;
    const Bytes in = {1, 2, 3};
    int cookie = 0;
    SyscallArgs args =
        makeArgs(std::uint64_t{1}, std::int64_t{-2}, "three", &out, &in,
                 static_cast<void *>(&cookie));
    ASSERT_EQ(args.size(), 6u);
    EXPECT_EQ(args.u64(0), 1u);
    EXPECT_EQ(args.i64(1), -2);
    EXPECT_EQ(args.str(2), "three");
    EXPECT_EQ(args.bytes(3), &out);
    EXPECT_EQ(args.cbytes(4), &in);
    EXPECT_EQ(args.ptr(5), &cookie);
    // A wrong type or a slot past the count is a bad argument.
    EXPECT_THROW(args.str(0), BadSyscallArg);
    EXPECT_THROW(args.u64(6), BadSyscallArg);
}

TEST_F(DispatchParityTest, ProcessIdentityParity)
{
    // Both worlds boot identically, so pid/ppid must agree too.
    both(sysno::GETPID, xnu::xnuno::GETPID, makeArgs());
    both(sysno::GETPPID, xnu::xnuno::GETPPID, makeArgs());
}

TEST_F(DispatchParityTest, RandomisedFileOpsParity)
{
    // Property flavour: a deterministic random sequence of mkdir /
    // open / write / lseek / close / unlink keeps both worlds in
    // lockstep at every step.
    Rng rng(0xC1DE);
    both(sysno::MKDIR, xnu::xnuno::MKDIR, makeArgs("/r"));

    std::vector<Fd> open_fds;
    for (int step = 0; step < 200; ++step) {
        switch (rng.range(0, 3)) {
          case 0: {
            std::string path =
                "/r/f" + std::to_string(rng.range(0, 7));
            auto [lr, xr] =
                both(sysno::OPEN, xnu::xnuno::OPEN,
                     makeArgs(path, static_cast<std::int64_t>(
                                        oflag::CREAT | oflag::RDWR)));
            if (lr.ok())
                open_fds.push_back(static_cast<Fd>(lr.value));
            break;
          }
          case 1: {
            if (open_fds.empty())
                break;
            Fd fd = open_fds[static_cast<std::size_t>(
                rng.below(open_fds.size()))];
            Bytes data(static_cast<std::size_t>(rng.range(1, 64)),
                       static_cast<std::uint8_t>(step));
            both(sysno::WRITE, xnu::xnuno::WRITE,
                 makeArgs(static_cast<std::int64_t>(fd),
                          static_cast<const Bytes *>(&data)));
            break;
          }
          case 2: {
            if (open_fds.empty())
                break;
            Fd fd = open_fds[static_cast<std::size_t>(
                rng.below(open_fds.size()))];
            both(sysno::LSEEK, xnu::xnuno::LSEEK,
                 makeArgs(static_cast<std::int64_t>(fd),
                          static_cast<std::int64_t>(rng.range(0, 32)),
                          std::int64_t{0}));
            break;
          }
          case 3: {
            if (open_fds.empty())
                break;
            Fd fd = open_fds.back();
            open_fds.pop_back();
            both(sysno::CLOSE, xnu::xnuno::CLOSE,
                 makeArgs(static_cast<std::int64_t>(fd)));
            break;
          }
        }
    }
}

/** One Linux syscall and the XNU BSD entry that serves it on iOS. */
struct Twin
{
    int linuxNr;
    int xnuNr;
    const char *xnuName;
    bool ownBody; ///< translates signal numbers before the Linux body
};

const Twin kTwins[] = {
    {sysno::NULL_SYSCALL, xnu::xnuno::NULL_SYSCALL, "null", false},
    {sysno::EXIT, xnu::xnuno::EXIT, "exit", false},
    {sysno::FORK, xnu::xnuno::FORK, "fork", false},
    {sysno::READ, xnu::xnuno::READ, "read", false},
    {sysno::WRITE, xnu::xnuno::WRITE, "write", false},
    {sysno::OPEN, xnu::xnuno::OPEN, "open", false},
    {sysno::CLOSE, xnu::xnuno::CLOSE, "close", false},
    {sysno::WAITPID, xnu::xnuno::WAIT4, "wait4", false},
    {sysno::UNLINK, xnu::xnuno::UNLINK, "unlink", false},
    {sysno::EXECVE, xnu::xnuno::EXECVE, "execve", false},
    {sysno::GETPID, xnu::xnuno::GETPID, "getpid", false},
    {sysno::KILL, xnu::xnuno::KILL, "kill", true},
    {sysno::MKDIR, xnu::xnuno::MKDIR, "mkdir", false},
    {sysno::RMDIR, xnu::xnuno::RMDIR, "rmdir", false},
    {sysno::DUP, xnu::xnuno::DUP, "dup", false},
    {sysno::PIPE, xnu::xnuno::PIPE, "pipe", false},
    {sysno::IOCTL, xnu::xnuno::IOCTL, "ioctl", false},
    {sysno::LSEEK, xnu::xnuno::LSEEK, "lseek", false},
    {sysno::STAT, xnu::xnuno::STAT, "stat", false},
    {sysno::RENAME, xnu::xnuno::RENAME, "rename", false},
    {sysno::DUP2, xnu::xnuno::DUP2, "dup2", false},
    {sysno::GETPPID, xnu::xnuno::GETPPID, "getppid", false},
    {sysno::SIGACTION, xnu::xnuno::SIGACTION, "sigaction", true},
    {sysno::SELECT, xnu::xnuno::SELECT, "select", false},
    {sysno::SOCKET, xnu::xnuno::SOCKET, "socket", false},
    {sysno::BIND, xnu::xnuno::BIND, "bind", false},
    {sysno::CONNECT, xnu::xnuno::CONNECT, "connect", false},
    {sysno::LISTEN, xnu::xnuno::LISTEN, "listen", false},
    {sysno::ACCEPT, xnu::xnuno::ACCEPT, "accept", false},
    {sysno::SOCKETPAIR, xnu::xnuno::SOCKETPAIR, "socketpair", false},
    {sysno::SENDTO, xnu::xnuno::SENDTO, "sendto", false},
    {sysno::RECVFROM, xnu::xnuno::RECVFROM, "recvfrom", false},
    {sysno::SHUTDOWN, xnu::xnuno::SHUTDOWN, "shutdown", false},
};

TEST_F(DispatchParityTest, EveryLinuxSyscallHasAnXnuTwinOnItsBody)
{
    // The XNU BSD entry of a syscall with a Linux twin is that Linux
    // entry's own handler and user word under the Darwin number and
    // name; only kill and sigaction have bodies of their own.
    const SyscallTable &lx = xnu_.kernel.linuxTable();
    const SyscallTable &bsd = xnu_.mgr.xnuBsdTable();
    std::vector<int> covered;
    for (const Twin &tw : kTwins) {
        covered.push_back(tw.linuxNr);
        const SyscallTable::Entry *l = lx.find(tw.linuxNr);
        const SyscallTable::Entry *x = bsd.find(tw.xnuNr);
        ASSERT_NE(l, nullptr) << tw.xnuName;
        ASSERT_NE(x, nullptr) << tw.xnuName;
        EXPECT_STREQ(x->name, tw.xnuName);
        if (tw.ownBody) {
            EXPECT_NE(x->fn, l->fn) << tw.xnuName;
        } else {
            EXPECT_EQ(x->fn, l->fn) << tw.xnuName;
            EXPECT_EQ(x->user, l->user) << tw.xnuName;
        }
    }
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, lx.registeredNumbers());
}

} // namespace
} // namespace cider::kernel
