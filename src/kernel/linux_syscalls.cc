#include "kernel/linux_syscalls.h"

#include "kernel/kernel.h"
#include "kernel/trap_context.h"

namespace cider::kernel {

void
Kernel::registerLinuxSyscalls()
{
    SyscallTable &tbl = linuxTable_;

    tbl.set(sysno::NULL_SYSCALL, "null", [](TrapContext &c, void *) {
        return c.kernel.sysNull(c.thread);
    });

    tbl.set(sysno::EXIT, "exit", [](TrapContext &c, void *) {
        c.kernel.sysExit(c.thread, c.args.i32(0));
        return SyscallResult::success(); // unreachable
    });

    tbl.set(sysno::FORK, "fork", [](TrapContext &c, void *) {
        auto *body = static_cast<EntryFn *>(c.args.ptr(0));
        return c.kernel.sysFork(c.thread, body ? *body : EntryFn());
    });

    tbl.set(sysno::READ, "read", [](TrapContext &c, void *) {
        return c.kernel.sysRead(c.thread, c.args.i32(0),
                                *c.args.bytes(1),
                                static_cast<std::size_t>(c.args.u64(2)));
    });

    tbl.set(sysno::WRITE, "write", [](TrapContext &c, void *) {
        return c.kernel.sysWrite(c.thread, c.args.i32(0),
                                 *c.args.cbytes(1));
    });

    // open passes the caller's path view down to the dentry cache; the
    // other path calls copy it into a string of their own.
    tbl.set(sysno::OPEN, "open", [](TrapContext &c, void *) {
        return c.kernel.sysOpen(c.thread, c.args.str(0), c.args.i32(1));
    });

    tbl.set(sysno::CLOSE, "close", [](TrapContext &c, void *) {
        return c.kernel.sysClose(c.thread, c.args.i32(0));
    });

    tbl.set(sysno::WAITPID, "waitpid", [](TrapContext &c, void *) {
        return c.kernel.sysWaitpid(c.thread, c.args.i32(0),
                                   static_cast<int *>(c.args.ptr(1)));
    });

    tbl.set(sysno::UNLINK, "unlink", [](TrapContext &c, void *) {
        return c.kernel.sysUnlink(c.thread, std::string(c.args.str(0)));
    });

    tbl.set(sysno::EXECVE, "execve", [](TrapContext &c, void *) {
        auto *argv =
            static_cast<std::vector<std::string> *>(c.args.ptr(1));
        return c.kernel.sysExecve(c.thread, std::string(c.args.str(0)),
                                  argv ? *argv
                                       : std::vector<std::string>());
    });

    tbl.set(sysno::GETPID, "getpid", [](TrapContext &c, void *) {
        return c.kernel.sysGetpid(c.thread);
    });

    tbl.set(sysno::KILL, "kill", [](TrapContext &c, void *) {
        return c.kernel.sysKill(c.thread, c.args.i32(0), c.args.i32(1));
    });

    tbl.set(sysno::MKDIR, "mkdir", [](TrapContext &c, void *) {
        return c.kernel.sysMkdir(c.thread, std::string(c.args.str(0)));
    });

    tbl.set(sysno::RMDIR, "rmdir", [](TrapContext &c, void *) {
        return c.kernel.sysRmdir(c.thread, std::string(c.args.str(0)));
    });

    tbl.set(sysno::DUP, "dup", [](TrapContext &c, void *) {
        return c.kernel.sysDup(c.thread, c.args.i32(0));
    });

    tbl.set(sysno::PIPE, "pipe", [](TrapContext &c, void *) {
        return c.kernel.sysPipe(c.thread,
                                static_cast<Fd *>(c.args.ptr(0)));
    });

    tbl.set(sysno::IOCTL, "ioctl", [](TrapContext &c, void *) {
        return c.kernel.sysIoctl(c.thread, c.args.i32(0), c.args.u64(1),
                                 c.args.ptr(2));
    });

    tbl.set(sysno::LSEEK, "lseek", [](TrapContext &c, void *) {
        return c.kernel.sysLseek(c.thread, c.args.i32(0), c.args.i64(1),
                                 c.args.i32(2));
    });

    tbl.set(sysno::STAT, "stat", [](TrapContext &c, void *) {
        return c.kernel.sysStat(c.thread, std::string(c.args.str(0)),
                                static_cast<StatBuf *>(c.args.ptr(1)));
    });

    tbl.set(sysno::RENAME, "rename", [](TrapContext &c, void *) {
        return c.kernel.sysRename(c.thread, std::string(c.args.str(0)),
                                  std::string(c.args.str(1)));
    });

    tbl.set(sysno::DUP2, "dup2", [](TrapContext &c, void *) {
        return c.kernel.sysDup2(c.thread, c.args.i32(0), c.args.i32(1));
    });

    tbl.set(sysno::GETPPID, "getppid", [](TrapContext &c, void *) {
        return c.kernel.sysGetppid(c.thread);
    });

    tbl.set(sysno::SIGACTION, "sigaction", [](TrapContext &c, void *) {
        auto *act = static_cast<SignalAction *>(c.args.ptr(1));
        return c.kernel.sysSigaction(c.thread, c.args.i32(0),
                                     act ? *act : SignalAction());
    });

    tbl.set(sysno::SELECT, "select", [](TrapContext &c, void *) {
        auto *rd = static_cast<std::vector<Fd> *>(c.args.ptr(0));
        auto *wr = static_cast<std::vector<Fd> *>(c.args.ptr(1));
        auto *ready = static_cast<std::vector<Fd> *>(c.args.ptr(2));
        static const std::vector<Fd> empty;
        return c.kernel.sysSelect(c.thread, rd ? *rd : empty,
                                  wr ? *wr : empty, *ready);
    });

    // socket(2) serves two families: the historical no-arg form is
    // AF_UNIX; socket(domain=2, type) is AF_INET (type 1=stream,
    // 2=dgram). bind/connect likewise dispatch on the argument shape
    // (a path string is AF_UNIX; numeric addr/port is AF_INET).
    tbl.set(sysno::SOCKET, "socket", [](TrapContext &c, void *) {
        if (c.args.size() >= 2)
            return c.kernel.sysNetSocket(c.thread, c.args.i32(1));
        return c.kernel.sysSocket(c.thread);
    });

    tbl.set(sysno::BIND, "bind", [](TrapContext &c, void *) {
        if (c.args.size() >= 3)
            return c.kernel.sysNetBind(
                c.thread, c.args.i32(0),
                static_cast<NetAddr>(c.args.u64(1)),
                static_cast<NetPort>(c.args.u64(2)));
        return c.kernel.sysBind(c.thread, c.args.i32(0),
                                std::string(c.args.str(1)));
    });

    tbl.set(sysno::CONNECT, "connect", [](TrapContext &c, void *) {
        if (c.args.size() >= 3)
            return c.kernel.sysNetConnect(
                c.thread, c.args.i32(0),
                static_cast<NetAddr>(c.args.u64(1)),
                static_cast<NetPort>(c.args.u64(2)));
        return c.kernel.sysConnect(c.thread, c.args.i32(0),
                                   std::string(c.args.str(1)));
    });

    tbl.set(sysno::LISTEN, "listen", [](TrapContext &c, void *) {
        return c.kernel.sysListen(c.thread, c.args.i32(0),
                                  c.args.i32(1));
    });

    tbl.set(sysno::ACCEPT, "accept", [](TrapContext &c, void *) {
        return c.kernel.sysAccept(c.thread, c.args.i32(0));
    });

    tbl.set(sysno::SOCKETPAIR, "socketpair", [](TrapContext &c, void *) {
        return c.kernel.sysSocketpair(c.thread,
                                      static_cast<Fd *>(c.args.ptr(0)));
    });

    tbl.set(sysno::SENDTO, "sendto", [](TrapContext &c, void *) {
        const Bytes *data = c.args.cbytes(1);
        static const Bytes empty;
        return c.kernel.sysNetSendTo(
            c.thread, c.args.i32(0),
            static_cast<NetAddr>(c.args.u64(2)),
            static_cast<NetPort>(c.args.u64(3)),
            data ? *data : empty);
    });

    tbl.set(sysno::RECVFROM, "recvfrom", [](TrapContext &c, void *) {
        Bytes *out = c.args.bytes(1);
        if (out == nullptr)
            return SyscallResult::failure(lnx::FAULT);
        return c.kernel.sysNetRecvFrom(
            c.thread, c.args.i32(0), *out,
            static_cast<std::size_t>(c.args.u64(2)),
            static_cast<NetAddr *>(c.args.ptr(3)),
            static_cast<NetPort *>(c.args.ptr(4)));
    });

    tbl.set(sysno::SHUTDOWN, "shutdown", [](TrapContext &c, void *) {
        return c.kernel.sysNetShutdown(c.thread, c.args.i32(0),
                                       c.args.i32(1));
    });
}

} // namespace cider::kernel
