/**
 * @file
 * The libc ABI table, pinned. On a Cider (iOS) system the 30 shared
 * libc calls run through bionic in an Android process and through
 * libSystem in an iOS process; a wrapping dispatcher records every
 * trap. Each call must trap once, with its persona's trap class and
 * the number written out below; its XNU number must reach the Linux
 * body its Linux number reaches (kill and sigaction translate signal
 * numbers in bodies of their own); and a failure's errno must land in
 * the caller's own TLS area only, in that persona's numbering.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <mutex>

#include "android/bionic.h"
#include "base/logging.h"
#include "core/cider_system.h"
#include "ios/libsystem.h"
#include "kernel/linux_syscalls.h"
#include "kernel/trap_context.h"
#include "persona/persona.h"
#include "persona/tls.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/kern_return.h"
#include "xnu/xnu_signals.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;
using kernel::Persona;
using kernel::TrapClass;
namespace lnr = kernel::sysno;
namespace xnr = xnu::xnuno;

/** Records the class and number of every trap a process makes, then
 *  forwards the trap to the dispatcher it replaced. */
class TrapRecorder : public kernel::TrapDispatcher
{
  public:
    struct Trap
    {
        TrapClass cls;
        int nr;
    };

    static TrapRecorder &
    install(kernel::Kernel &k)
    {
        auto rec = std::make_unique<TrapRecorder>();
        TrapRecorder &ref = *rec;
        ref.inner_ = k.setDispatcher(std::move(rec));
        return ref;
    }

    const char *name() const override { return "trap-recorder"; }

    kernel::SyscallResult
    dispatch(kernel::TrapContext &ctx) override
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (ctx.thread.process().pid() == pid_)
                traps_.push_back({ctx.cls, ctx.nr});
        }
        return inner_->dispatch(ctx);
    }

    /** Start recording process @p pid's traps afresh. */
    void
    watch(kernel::Pid pid)
    {
        std::lock_guard<std::mutex> lock(mu_);
        pid_ = pid;
        traps_.clear();
    }

    std::vector<Trap>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return std::exchange(traps_, {});
    }

  private:
    std::unique_ptr<kernel::TrapDispatcher> inner_;
    std::mutex mu_;
    kernel::Pid pid_ = -1;
    std::vector<Trap> traps_;
};

/** What the calls of one program share. */
struct Scratch
{
    int fd = -1;
    int fds[2] = {-1, -1};
    int listener = -1;
    int child = -1;
    kernel::StatBuf st;
    Bytes buf;
    std::vector<int> rd, wr, ready;
};

/** One shared libc call: its numbers on each ABI and a use of it. */
struct Call
{
    const char *name;
    int linuxNr;
    int xnuNr;
    void (*use)(persona::Libc &, Scratch &);
};

/** SIGUSR1 in the numbering of @p libc's persona. */
int
usr1(persona::Libc &libc)
{
    return libc.env().thread.persona() == Persona::Ios ? xnu::dsig::USR1
                                                       : kernel::lsig::USR1;
}

// In program order; exit comes last and ends the process.
const Call kCalls[] = {
    {"open", lnr::OPEN, xnr::OPEN,
     [](persona::Libc &c, Scratch &s) {
         s.fd = c.open("/tmp/abi",
                       kernel::oflag::CREAT | kernel::oflag::RDWR);
     }},
    {"write", lnr::WRITE, xnr::WRITE,
     [](persona::Libc &c, Scratch &s) { c.write(s.fd, Bytes{1, 2}); }},
    {"lseek", lnr::LSEEK, xnr::LSEEK,
     [](persona::Libc &c, Scratch &s) {
         c.lseek(s.fd, 0, kernel::seekw::SET);
     }},
    {"read", lnr::READ, xnr::READ,
     [](persona::Libc &c, Scratch &s) { c.read(s.fd, s.buf, 2); }},
    {"dup", lnr::DUP, xnr::DUP,
     [](persona::Libc &c, Scratch &s) { c.dup(s.fd); }},
    {"dup2", lnr::DUP2, xnr::DUP2,
     [](persona::Libc &c, Scratch &s) { c.dup2(s.fd, 40); }},
    {"ioctl", lnr::IOCTL, xnr::IOCTL,
     [](persona::Libc &c, Scratch &s) { c.ioctl(s.fd, 0, nullptr); }},
    {"close", lnr::CLOSE, xnr::CLOSE,
     [](persona::Libc &c, Scratch &s) { c.close(s.fd); }},
    {"stat", lnr::STAT, xnr::STAT,
     [](persona::Libc &c, Scratch &s) { c.stat("/tmp/abi", &s.st); }},
    {"rename", lnr::RENAME, xnr::RENAME,
     [](persona::Libc &c, Scratch &) {
         c.rename("/tmp/abi", "/tmp/abi2");
     }},
    {"unlink", lnr::UNLINK, xnr::UNLINK,
     [](persona::Libc &c, Scratch &) { c.unlink("/tmp/abi2"); }},
    {"mkdir", lnr::MKDIR, xnr::MKDIR,
     [](persona::Libc &c, Scratch &) { c.mkdir("/tmp/abidir"); }},
    {"rmdir", lnr::RMDIR, xnr::RMDIR,
     [](persona::Libc &c, Scratch &) { c.rmdir("/tmp/abidir"); }},
    {"pipe", lnr::PIPE, xnr::PIPE,
     [](persona::Libc &c, Scratch &s) {
         c.pipe(s.fds);
         s.rd = {s.fds[0]};
         s.wr = {s.fds[1]};
     }},
    {"select", lnr::SELECT, xnr::SELECT,
     [](persona::Libc &c, Scratch &s) { c.select(s.rd, s.wr, s.ready); }},
    {"socketpair", lnr::SOCKETPAIR, xnr::SOCKETPAIR,
     [](persona::Libc &c, Scratch &s) { c.socketpair(s.fds); }},
    {"socket", lnr::SOCKET, xnr::SOCKET,
     [](persona::Libc &c, Scratch &s) { s.listener = c.socket(); }},
    {"bind", lnr::BIND, xnr::BIND,
     [](persona::Libc &c, Scratch &s) {
         c.bind(s.listener, "/tmp/abi.sock");
     }},
    {"listen", lnr::LISTEN, xnr::LISTEN,
     [](persona::Libc &c, Scratch &s) { c.listen(s.listener, 1); }},
    {"connect", lnr::CONNECT, xnr::CONNECT,
     [](persona::Libc &c, Scratch &) {
         // The client socket comes straight from the kernel, not
         // through a second (recorded) socket trap.
         binfmt::UserEnv &env = c.env();
         c.connect(static_cast<int>(env.kernel.sysSocket(env.thread).value),
                   "/tmp/abi.sock");
     }},
    {"accept", lnr::ACCEPT, xnr::ACCEPT,
     [](persona::Libc &c, Scratch &s) { c.accept(s.listener); }},
    {"getpid", lnr::GETPID, xnr::GETPID,
     [](persona::Libc &c, Scratch &) { c.getpid(); }},
    {"getppid", lnr::GETPPID, xnr::GETPPID,
     [](persona::Libc &c, Scratch &) { c.getppid(); }},
    {"fork", lnr::FORK, xnr::FORK,
     [](persona::Libc &c, Scratch &s) {
         s.child = c.fork([](kernel::Thread &) { return 0; });
     }},
    {"waitpid", lnr::WAITPID, xnr::WAIT4,
     [](persona::Libc &c, Scratch &s) {
         int status = 0;
         c.waitpid(s.child, &status);
     }},
    {"execve", lnr::EXECVE, xnr::EXECVE,
     [](persona::Libc &c, Scratch &) { c.execve("/missing", {}); }},
    {"sigaction", lnr::SIGACTION, xnr::SIGACTION,
     [](persona::Libc &c, Scratch &) {
         c.sigaction(usr1(c), [](int, const kernel::SigInfo &) {});
     }},
    {"kill", lnr::KILL, xnr::KILL,
     [](persona::Libc &c, Scratch &s) { c.kill(s.child, 0); }},
    {"null", lnr::NULL_SYSCALL, xnr::NULL_SYSCALL,
     [](persona::Libc &c, Scratch &) { c.nullSyscall(); }},
    {"exit", lnr::EXIT, xnr::EXIT,
     [](persona::Libc &c, Scratch &) { c.exit(0); }},
};

std::unique_ptr<CiderSystem>
bootCiderIos()
{
    setLogQuiet(true);
    SystemOptions opts;
    opts.config = SystemConfig::CiderIos;
    return std::make_unique<CiderSystem>(opts);
}

/** Run every call through @p Lib in a process of @p persona on a
 *  fresh Cider (iOS) system; the traps each call made, in call
 *  order. */
template <typename Lib>
std::vector<std::vector<TrapRecorder::Trap>>
runAll(Persona persona)
{
    auto sys = bootCiderIos();
    TrapRecorder &rec = TrapRecorder::install(sys->kernel());
    std::vector<std::vector<TrapRecorder::Trap>> per_call;
    sys->runInProcess("abi", persona, [&](binfmt::UserEnv &env) {
        Lib libc(env);
        Scratch s;
        rec.watch(env.process().pid());
        for (const Call &call : kCalls) {
            call.use(libc, s);
            per_call.push_back(rec.take());
        }
        return 1; // not reached: the last call exits
    });
    per_call.push_back(rec.take()); // exit's
    return per_call;
}

TEST(LibcAbiTest, EachCallTrapsOnceWithItsPersonasNumber)
{
    const auto bionic = runAll<android::Bionic>(Persona::Android);
    const auto libsystem = runAll<ios::LibSystem>(Persona::Ios);
    ASSERT_EQ(bionic.size(), std::size(kCalls));
    ASSERT_EQ(libsystem.size(), std::size(kCalls));
    for (std::size_t i = 0; i < std::size(kCalls); ++i) {
        const Call &call = kCalls[i];
        ASSERT_EQ(bionic[i].size(), 1u) << "bionic " << call.name;
        EXPECT_EQ(bionic[i][0].cls, TrapClass::LinuxSyscall) << call.name;
        EXPECT_EQ(bionic[i][0].nr, call.linuxNr) << "bionic " << call.name;
        ASSERT_EQ(libsystem[i].size(), 1u) << "libSystem " << call.name;
        EXPECT_EQ(libsystem[i][0].cls, TrapClass::XnuBsd) << call.name;
        EXPECT_EQ(libsystem[i][0].nr, call.xnuNr)
            << "libSystem " << call.name;
    }
}

TEST(LibcAbiTest, EachXnuNumberReachesItsLinuxBody)
{
    const auto libsystem = runAll<ios::LibSystem>(Persona::Ios);
    auto sys = bootCiderIos();
    const kernel::SyscallTable &lx = sys->kernel().linuxTable();
    const kernel::SyscallTable &bsd = sys->personaManager()->xnuBsdTable();
    ASSERT_EQ(libsystem.size(), std::size(kCalls));
    for (std::size_t i = 0; i < std::size(kCalls); ++i) {
        const Call &call = kCalls[i];
        ASSERT_EQ(libsystem[i].size(), 1u) << call.name;
        const kernel::SyscallTable::Entry *l = lx.find(call.linuxNr);
        const kernel::SyscallTable::Entry *x = bsd.find(libsystem[i][0].nr);
        ASSERT_NE(l, nullptr) << call.name;
        ASSERT_NE(x, nullptr) << call.name;
        const std::string name = call.name;
        if (name == "kill" || name == "sigaction")
            EXPECT_NE(x->fn, l->fn) << call.name;
        else
            EXPECT_EQ(x->fn, l->fn) << call.name;
    }
}

TEST(LibcAbiTest, ErrnoLandsOnlyInTheCallersTlsArea)
{
    // rmdir of a non-empty directory: ENOTEMPTY is 39 on Linux and 66
    // on Darwin.
    auto sys = bootCiderIos();
    sys->kernel().vfs().mkdirAll("/tmp/full");
    sys->kernel().vfs().writeFile("/tmp/full/file", Bytes{1});
    auto failing_rmdir = [](persona::Libc libc, Persona own, Persona other,
                            int expected) {
        EXPECT_EQ(libc.rmdir("/tmp/full"), -1);
        EXPECT_EQ(libc.errno_(), expected);
        persona::ThreadTls &tls = persona::ThreadTls::of(libc.env().thread);
        EXPECT_EQ(tls.area(own).errnoValue(), expected);
        EXPECT_EQ(tls.area(other).errnoValue(), 0);
        return 0;
    };
    sys->runInProcess("droid", Persona::Android, [&](binfmt::UserEnv &env) {
        return failing_rmdir(android::Bionic(env), Persona::Android,
                             Persona::Ios, kernel::lnx::NOTEMPTY);
    });
    sys->runInProcess("ios", Persona::Ios, [&](binfmt::UserEnv &env) {
        return failing_rmdir(ios::LibSystem(env), Persona::Ios,
                             Persona::Android, xnu::derr::NOTEMPTY);
    });
}

} // namespace
} // namespace cider
