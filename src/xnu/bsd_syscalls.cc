#include "xnu/bsd_syscalls.h"

#include "base/logging.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "kernel/trap_context.h"
#include "xnu/psynch.h"
#include "xnu/xnu_signals.h"

namespace cider::xnu {

using kernel::SyscallResult;
using kernel::SyscallTable;
using kernel::TrapContext;

namespace {

SyscallResult
krToSys(kern_return_t kr)
{
    if (kr == KERN_SUCCESS)
        return SyscallResult::success();
    if (kr == KERN_OPERATION_TIMED_OUT)
        return SyscallResult::failure(kernel::lnx::TIMEDOUT);
    return SyscallResult::failure(kernel::lnx::INVAL);
}

PsynchSubsystem &
psynchOf(void *user)
{
    return *static_cast<PsynchSubsystem *>(user);
}

/** An XNU BSD syscall whose Linux body serves it unchanged: the
 *  dispatcher has already translated the calling convention, so the
 *  entry differs from the Linux one only in its number and name. */
struct SharedBody
{
    int xnuNr;
    int linuxNr;
    const char *name;
};

constexpr SharedBody kSharedBodies[] = {
    {xnuno::NULL_SYSCALL, kernel::sysno::NULL_SYSCALL, "null"},
    {xnuno::EXIT, kernel::sysno::EXIT, "exit"},
    {xnuno::FORK, kernel::sysno::FORK, "fork"},
    {xnuno::READ, kernel::sysno::READ, "read"},
    {xnuno::WRITE, kernel::sysno::WRITE, "write"},
    {xnuno::OPEN, kernel::sysno::OPEN, "open"},
    {xnuno::CLOSE, kernel::sysno::CLOSE, "close"},
    {xnuno::WAIT4, kernel::sysno::WAITPID, "wait4"},
    {xnuno::UNLINK, kernel::sysno::UNLINK, "unlink"},
    {xnuno::GETPID, kernel::sysno::GETPID, "getpid"},
    {xnuno::DUP, kernel::sysno::DUP, "dup"},
    {xnuno::PIPE, kernel::sysno::PIPE, "pipe"},
    {xnuno::IOCTL, kernel::sysno::IOCTL, "ioctl"},
    {xnuno::LSEEK, kernel::sysno::LSEEK, "lseek"},
    {xnuno::STAT, kernel::sysno::STAT, "stat"},
    {xnuno::RENAME, kernel::sysno::RENAME, "rename"},
    {xnuno::DUP2, kernel::sysno::DUP2, "dup2"},
    {xnuno::GETPPID, kernel::sysno::GETPPID, "getppid"},
    {xnuno::EXECVE, kernel::sysno::EXECVE, "execve"},
    {xnuno::SELECT, kernel::sysno::SELECT, "select"},
    {xnuno::SOCKET, kernel::sysno::SOCKET, "socket"},
    {xnuno::CONNECT, kernel::sysno::CONNECT, "connect"},
    {xnuno::ACCEPT, kernel::sysno::ACCEPT, "accept"},
    {xnuno::BIND, kernel::sysno::BIND, "bind"},
    {xnuno::LISTEN, kernel::sysno::LISTEN, "listen"},
    {xnuno::SOCKETPAIR, kernel::sysno::SOCKETPAIR, "socketpair"},
    {xnuno::SENDTO, kernel::sysno::SENDTO, "sendto"},
    {xnuno::RECVFROM, kernel::sysno::RECVFROM, "recvfrom"},
    {xnuno::SHUTDOWN, kernel::sysno::SHUTDOWN, "shutdown"},
    {xnuno::MKDIR, kernel::sysno::MKDIR, "mkdir"},
    {xnuno::RMDIR, kernel::sysno::RMDIR, "rmdir"},
};

} // namespace

void
buildXnuBsdTable(SyscallTable &tbl, const SyscallTable &linux_table,
                 PsynchSubsystem &psynch)
{
    for (const SharedBody &row : kSharedBodies) {
        const SyscallTable::Entry *e = linux_table.find(row.linuxNr);
        if (!e)
            // invariant-only: both tables are built from in-tree
            // registrations.
            cider_panic("xnu-bsd: no Linux body for ", row.name,
                        " (linux nr ", row.linuxNr, ")");
        tbl.set(row.xnuNr, row.name, e->fn, e->user);
    }

    tbl.set(xnuno::KILL, "kill", [](TrapContext &c, void *) {
        // Programmatic XNU signal: translate the Darwin number into
        // the kernel's Linux vocabulary before delivery, so iOS apps
        // can signal Android apps and vice versa (paper section 4.1).
        int xnu_signo = c.args.i32(1);
        int linux_signo = xnu_signo == 0 ? 0 : xnuSigToLinux(xnu_signo);
        if (xnu_signo != 0 && linux_signo == 0)
            return SyscallResult::failure(kernel::lnx::INVAL);
        return c.kernel.sysKill(c.thread, c.args.i32(0), linux_signo);
    });

    tbl.set(xnuno::SIGACTION, "sigaction", [](TrapContext &c, void *) {
        int linux_signo = xnuSigToLinux(c.args.i32(0));
        if (linux_signo == 0)
            return SyscallResult::failure(kernel::lnx::INVAL);
        auto *act = static_cast<kernel::SignalAction *>(c.args.ptr(1));
        return c.kernel.sysSigaction(c.thread, linux_signo,
                                     act ? *act
                                         : kernel::SignalAction());
    });

    // posix_spawn has no Linux twin; compose it from the Linux clone
    // and exec implementations, as the paper does.
    tbl.set(xnuno::POSIX_SPAWN, "posix_spawn",
            [](TrapContext &c, void *) {
                std::string path(c.args.str(0));
                auto *argv_in =
                    static_cast<std::vector<std::string> *>(
                        c.args.ptr(1));
                std::vector<std::string> argv =
                    argv_in ? *argv_in : std::vector<std::string>();
                kernel::Kernel &k = c.kernel;
                kernel::EntryFn child =
                    [&k, path, argv](kernel::Thread &ct) -> int {
                    kernel::SyscallResult r = k.sysExecve(ct, path, argv);
                    return r.ok() ? 0 : 127;
                };
                return c.kernel.sysFork(c.thread, child);
            });

    // psynch: the duct-taped XNU pthread kernel support, routed to the
    // subsystem through the entry's user-data word.
    tbl.set(xnuno::PSYNCH_MUTEXWAIT, "psynch_mutexwait",
            [](TrapContext &c, void *u) {
                kern_return_t kr = psynchOf(u).mutexWait(
                    c.args.u64(0),
                    static_cast<std::uint64_t>(c.thread.tid()));
                if (kr == KERN_INVALID_ARGUMENT)
                    return SyscallResult::failure(kernel::lnx::DEADLK);
                return krToSys(kr);
            },
            &psynch);

    tbl.set(xnuno::PSYNCH_MUTEXDROP, "psynch_mutexdrop",
            [](TrapContext &c, void *u) {
                return krToSys(psynchOf(u).mutexDrop(
                    c.args.u64(0),
                    static_cast<std::uint64_t>(c.thread.tid())));
            },
            &psynch);

    tbl.set(xnuno::PSYNCH_CVWAIT, "psynch_cvwait",
            [](TrapContext &c, void *u) {
                std::uint64_t tid =
                    static_cast<std::uint64_t>(c.thread.tid());
                // Optional 4th argument: timeout in virtual ns
                // (pthread_cond_timedwait's kernel half).
                if (c.args.size() > 3)
                    return krToSys(psynchOf(u).cvWaitDeadline(
                        c.args.u64(0), c.args.u64(1), tid,
                        c.args.u64(3)));
                return krToSys(psynchOf(u).cvWait(
                    c.args.u64(0), c.args.u64(1), tid));
            },
            &psynch);

    tbl.set(xnuno::PSYNCH_CVSIGNAL, "psynch_cvsignal",
            [](TrapContext &c, void *u) {
                return krToSys(psynchOf(u).cvSignal(c.args.u64(0)));
            },
            &psynch);

    tbl.set(xnuno::PSYNCH_CVBROAD, "psynch_cvbroad",
            [](TrapContext &c, void *u) {
                return krToSys(psynchOf(u).cvBroadcast(c.args.u64(0)));
            },
            &psynch);
}

} // namespace cider::xnu
