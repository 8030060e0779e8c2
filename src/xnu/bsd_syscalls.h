/**
 * @file
 * The XNU BSD syscall table: numbers and registration.
 *
 * Most XNU BSD syscalls overlap POSIX functionality the Linux kernel
 * already has. The paper's wrapper for them (section 4.1) translates
 * the calling convention and runs the existing Linux implementation;
 * here the dispatcher does the translation, so such an entry is the
 * Linux table's own handler registered under the Darwin number, and
 * the dispatch boundary converts the result into the XNU calling
 * convention (carry flag + Darwin errno). Only signal-number
 * translation (kill, sigaction) needs a body of its own.
 *
 * Syscalls with no Linux counterpart but similar building blocks are
 * composed from them — posix_spawn is built from the Linux fork and
 * exec implementations. Syscalls needing whole missing subsystems
 * (psynch) call into the duct-taped foreign code instead.
 */

#ifndef CIDER_XNU_BSD_SYSCALLS_H
#define CIDER_XNU_BSD_SYSCALLS_H

namespace cider::kernel {
class Kernel;
class SyscallTable;
} // namespace cider::kernel

namespace cider::xnu {

class PsynchSubsystem;

/** XNU BSD syscall numbers (classic BSD numbering where real). */
namespace xnuno {

inline constexpr int EXIT = 1;
inline constexpr int FORK = 2;
inline constexpr int READ = 3;
inline constexpr int WRITE = 4;
inline constexpr int OPEN = 5;
inline constexpr int CLOSE = 6;
inline constexpr int WAIT4 = 7;
inline constexpr int UNLINK = 10;
inline constexpr int CHDIR = 12;
inline constexpr int GETPID = 20;
inline constexpr int GETPPID = 39;
inline constexpr int KILL = 37;
inline constexpr int RENAME = 128;
inline constexpr int STAT = 188;
inline constexpr int LSEEK = 199;
inline constexpr int DUP = 41;
inline constexpr int DUP2 = 90;
inline constexpr int PIPE = 42;
inline constexpr int SIGACTION = 46;
inline constexpr int IOCTL = 54;
inline constexpr int EXECVE = 59;
inline constexpr int SELECT = 93;
inline constexpr int SOCKET = 97;
inline constexpr int CONNECT = 98;
inline constexpr int ACCEPT = 30;
inline constexpr int BIND = 104;
inline constexpr int LISTEN = 106;
inline constexpr int SOCKETPAIR = 135;
inline constexpr int RECVFROM = 29;
inline constexpr int SENDTO = 133;
inline constexpr int SHUTDOWN = 134;
inline constexpr int MKDIR = 136;
inline constexpr int RMDIR = 137;
inline constexpr int POSIX_SPAWN = 244;
inline constexpr int PSYNCH_MUTEXWAIT = 301;
inline constexpr int PSYNCH_MUTEXDROP = 302;
inline constexpr int PSYNCH_CVBROAD = 303;
inline constexpr int PSYNCH_CVSIGNAL = 304;
inline constexpr int PSYNCH_CVWAIT = 305;
inline constexpr int NULL_SYSCALL = 999; ///< lmbench probe

} // namespace xnuno

/**
 * Populate @p tbl with the XNU BSD syscalls. Calls with a Linux twin
 * reuse that entry of @p linux_table (its function and user word);
 * signal-related entries translate Darwin numbering to Linux before
 * touching the kernel; psynch entries route into the duct-taped
 * subsystem @p psynch.
 */
void buildXnuBsdTable(kernel::SyscallTable &tbl,
                      const kernel::SyscallTable &linux_table,
                      PsynchSubsystem &psynch);

} // namespace cider::xnu

#endif // CIDER_XNU_BSD_SYSCALLS_H
