#include "persona/libc.h"

#include "base/cost_clock.h"
#include "kernel/linux_syscalls.h"
#include "persona/tls.h"
#include "xnu/bsd_syscalls.h"

namespace cider::persona {

using kernel::SyscallArgs;
using kernel::SyscallResult;

namespace {

namespace lnr = kernel::sysno;
namespace xnr = xnu::xnuno;

/** bionic: Linux syscalls; its atexit/atfork handlers cost nothing
 *  beyond their own work. */
constexpr LibcAbi kBionicAbi{
    .trapClass = kernel::TrapClass::LinuxSyscall,
    .errnoArea = kernel::Persona::Android,
    .stateSlot = kernel::ProcessSlot::BionicLibc,
    .handlerCycles = 0,
    .nr = {.open = lnr::OPEN, .close = lnr::CLOSE, .read = lnr::READ,
           .write = lnr::WRITE, .dup = lnr::DUP, .pipe = lnr::PIPE,
           .mkdir = lnr::MKDIR, .unlink = lnr::UNLINK,
           .rmdir = lnr::RMDIR, .ioctl = lnr::IOCTL,
           .lseek = lnr::LSEEK, .stat = lnr::STAT,
           .rename = lnr::RENAME, .dup2 = lnr::DUP2,
           .getppid = lnr::GETPPID, .select = lnr::SELECT,
           .socket = lnr::SOCKET, .bind = lnr::BIND,
           .listen = lnr::LISTEN, .accept = lnr::ACCEPT,
           .connect = lnr::CONNECT, .socketpair = lnr::SOCKETPAIR,
           .getpid = lnr::GETPID, .fork = lnr::FORK,
           .execve = lnr::EXECVE, .exit = lnr::EXIT,
           .waitpid = lnr::WAITPID, .kill = lnr::KILL,
           .sigaction = lnr::SIGACTION,
           .nullSyscall = lnr::NULL_SYSCALL},
};

/** libSystem: XNU BSD syscalls (waitpid is wait4). Running one
 *  registered handler costs 16000 cycles: dyld's per-image exit
 *  callbacks and the many atfork triples of iOS libraries are the
 *  user-space costs that dominate Figure 5's fork and exit rows. */
constexpr LibcAbi kLibSystemAbi{
    .trapClass = kernel::TrapClass::XnuBsd,
    .errnoArea = kernel::Persona::Ios,
    .stateSlot = kernel::ProcessSlot::LibSystemLibc,
    .handlerCycles = 16000,
    .nr = {.open = xnr::OPEN, .close = xnr::CLOSE, .read = xnr::READ,
           .write = xnr::WRITE, .dup = xnr::DUP, .pipe = xnr::PIPE,
           .mkdir = xnr::MKDIR, .unlink = xnr::UNLINK,
           .rmdir = xnr::RMDIR, .ioctl = xnr::IOCTL,
           .lseek = xnr::LSEEK, .stat = xnr::STAT,
           .rename = xnr::RENAME, .dup2 = xnr::DUP2,
           .getppid = xnr::GETPPID, .select = xnr::SELECT,
           .socket = xnr::SOCKET, .bind = xnr::BIND,
           .listen = xnr::LISTEN, .accept = xnr::ACCEPT,
           .connect = xnr::CONNECT, .socketpair = xnr::SOCKETPAIR,
           .getpid = xnr::GETPID, .fork = xnr::FORK,
           .execve = xnr::EXECVE, .exit = xnr::EXIT,
           .waitpid = xnr::WAIT4, .kill = xnr::KILL,
           .sigaction = xnr::SIGACTION,
           .nullSyscall = xnr::NULL_SYSCALL},
};

} // namespace

const LibcAbi &
libcAbi(kernel::Persona p)
{
    return p == kernel::Persona::Ios ? kLibSystemAbi : kBionicAbi;
}

SyscallResult
Libc::trap(int nr, const SyscallArgs &args)
{
    return env_.kernel.trap(env_.thread, abi_.trapClass, nr, args);
}

std::int64_t
Libc::ret(const SyscallResult &r)
{
    if (!r.ok()) {
        ThreadTls::of(env_.thread).area(abi_.errnoArea).setErrno(r.err);
        return -1;
    }
    return r.value;
}

LibcState &
Libc::state()
{
    return env_.process().ext().get<LibcState>(abi_.stateSlot);
}

int
Libc::open(const std::string &path, int flags)
{
    return static_cast<int>(sys(abi_.nr.open, path, std::int64_t{flags}));
}

int
Libc::close(int fd)
{
    return static_cast<int>(sys(abi_.nr.close, std::int64_t{fd}));
}

std::int64_t
Libc::read(int fd, Bytes &out, std::size_t n)
{
    return sys(abi_.nr.read, std::int64_t{fd}, &out, std::uint64_t{n});
}

std::int64_t
Libc::write(int fd, const Bytes &data)
{
    return sys(abi_.nr.write, std::int64_t{fd}, &data);
}

int
Libc::dup(int fd)
{
    return static_cast<int>(sys(abi_.nr.dup, std::int64_t{fd}));
}

int
Libc::pipe(int fds[2])
{
    return static_cast<int>(sys(abi_.nr.pipe, static_cast<void *>(fds)));
}

int
Libc::mkdir(const std::string &path)
{
    return static_cast<int>(sys(abi_.nr.mkdir, path));
}

int
Libc::unlink(const std::string &path)
{
    return static_cast<int>(sys(abi_.nr.unlink, path));
}

int
Libc::rmdir(const std::string &path)
{
    return static_cast<int>(sys(abi_.nr.rmdir, path));
}

int
Libc::ioctl(int fd, std::uint64_t req, void *arg)
{
    return static_cast<int>(sys(abi_.nr.ioctl, std::int64_t{fd}, req, arg));
}

std::int64_t
Libc::lseek(int fd, std::int64_t offset, int whence)
{
    return sys(abi_.nr.lseek, std::int64_t{fd}, offset,
               std::int64_t{whence});
}

int
Libc::stat(const std::string &path, kernel::StatBuf *out)
{
    return static_cast<int>(
        sys(abi_.nr.stat, path, static_cast<void *>(out)));
}

int
Libc::rename(const std::string &from, const std::string &to)
{
    return static_cast<int>(sys(abi_.nr.rename, from, to));
}

int
Libc::dup2(int fd, int new_fd)
{
    return static_cast<int>(
        sys(abi_.nr.dup2, std::int64_t{fd}, std::int64_t{new_fd}));
}

int
Libc::getppid()
{
    return static_cast<int>(sys(abi_.nr.getppid));
}

int
Libc::select(std::vector<int> &rd, std::vector<int> &wr,
             std::vector<int> &ready)
{
    return static_cast<int>(sys(abi_.nr.select, static_cast<void *>(&rd),
                                static_cast<void *>(&wr),
                                static_cast<void *>(&ready)));
}

int
Libc::socket()
{
    return static_cast<int>(sys(abi_.nr.socket));
}

int
Libc::bind(int fd, const std::string &path)
{
    return static_cast<int>(sys(abi_.nr.bind, std::int64_t{fd}, path));
}

int
Libc::listen(int fd, int backlog)
{
    return static_cast<int>(
        sys(abi_.nr.listen, std::int64_t{fd}, std::int64_t{backlog}));
}

int
Libc::accept(int fd)
{
    return static_cast<int>(sys(abi_.nr.accept, std::int64_t{fd}));
}

int
Libc::connect(int fd, const std::string &path)
{
    return static_cast<int>(sys(abi_.nr.connect, std::int64_t{fd}, path));
}

int
Libc::socketpair(int fds[2])
{
    return static_cast<int>(
        sys(abi_.nr.socketpair, static_cast<void *>(fds)));
}

int
Libc::getpid()
{
    return static_cast<int>(sys(abi_.nr.getpid));
}

int
Libc::fork(kernel::EntryFn child_body)
{
    LibcState &st = state();
    const std::uint64_t handler_ns =
        env_.kernel.profile().cyclesToNs(abi_.handlerCycles);

    // pthread_atfork: prepare in the parent, then parent/child halves.
    // iOS libraries register many of these; running them is a major
    // part of Figure 5's 14x fork slowdown.
    for (const auto &h : st.atforkHandlers) {
        charge(handler_ns);
        if (h.prepare)
            h.prepare();
    }

    kernel::EntryFn wrapped =
        [child_body, handlers = st.atforkHandlers,
         handler_ns](kernel::Thread &t) -> int {
        for (const auto &h : handlers) {
            charge(handler_ns);
            if (h.child)
                h.child();
        }
        return child_body ? child_body(t) : 0;
    };
    std::int64_t pid = sys(abi_.nr.fork, static_cast<void *>(&wrapped));

    for (const auto &h : st.atforkHandlers) {
        charge(handler_ns);
        if (h.parent)
            h.parent();
    }
    return static_cast<int>(pid);
}

int
Libc::execve(const std::string &path, const std::vector<std::string> &argv)
{
    std::vector<std::string> argv_copy = argv;
    return static_cast<int>(
        sys(abi_.nr.execve, path, static_cast<void *>(&argv_copy)));
}

void
Libc::exit(int code)
{
    LibcState &st = state();
    const std::uint64_t handler_ns =
        env_.kernel.profile().cyclesToNs(abi_.handlerCycles);
    // Most recent first, as the C runtime does. dyld registered one
    // per loaded image: all 100+ run on every iOS exit (Figure 5,
    // fork+exit).
    for (auto it = st.atexitHandlers.rbegin();
         it != st.atexitHandlers.rend(); ++it) {
        charge(handler_ns);
        (*it)();
    }
    st.atexitHandlers.clear();
    trap(abi_.nr.exit, kernel::makeArgs(std::int64_t{code}));
    // The exit syscall unwinds via ProcessExit; reaching here means
    // the kernel refused, which cannot happen.
    throw kernel::ProcessExit{code};
}

int
Libc::waitpid(int pid, int *status)
{
    return static_cast<int>(sys(abi_.nr.waitpid, std::int64_t{pid},
                                static_cast<void *>(status)));
}

int
Libc::kill(int pid, int signo)
{
    return static_cast<int>(
        sys(abi_.nr.kill, std::int64_t{pid}, std::int64_t{signo}));
}

int
Libc::sigaction(int signo, kernel::SignalHandlerFn handler)
{
    kernel::SignalAction act;
    if (handler) {
        act.kind = kernel::SignalAction::Kind::Handler;
        act.fn = std::move(handler);
    } else {
        act.kind = kernel::SignalAction::Kind::Ignore;
    }
    return static_cast<int>(sys(abi_.nr.sigaction, std::int64_t{signo},
                                static_cast<void *>(&act)));
}

int
Libc::nullSyscall()
{
    return static_cast<int>(sys(abi_.nr.nullSyscall));
}

void
Libc::atexit(std::function<void()> fn)
{
    state().atexitHandlers.push_back(std::move(fn));
}

void
Libc::pthreadAtfork(std::function<void()> prepare,
                    std::function<void()> parent,
                    std::function<void()> child)
{
    state().atforkHandlers.push_back(
        {std::move(prepare), std::move(parent), std::move(child)});
}

std::size_t
Libc::atexitCount()
{
    return state().atexitHandlers.size();
}

std::size_t
Libc::atforkCount()
{
    return state().atforkHandlers.size();
}

int
Libc::errno_() const
{
    return ThreadTls::of(env_.thread).area(abi_.errnoArea).errnoValue();
}

} // namespace cider::persona
