/**
 * @file
 * Linux syscall numbers (ARM-flavoured). The kernel registers its
 * Linux table under these numbers when it is constructed
 * (linux_syscalls.cc).
 *
 * User-space libc wrappers trap with these numbers so every call goes
 * through the kernel's dispatcher — which is exactly where Cider's
 * persona check and table switch live.
 */

#ifndef CIDER_KERNEL_LINUX_SYSCALLS_H
#define CIDER_KERNEL_LINUX_SYSCALLS_H

namespace cider::kernel {

/** Syscall numbers of the simulated Linux ABI. */
namespace sysno {

inline constexpr int EXIT = 1;
inline constexpr int FORK = 2;
inline constexpr int READ = 3;
inline constexpr int WRITE = 4;
inline constexpr int OPEN = 5;
inline constexpr int CLOSE = 6;
inline constexpr int WAITPID = 7;
inline constexpr int UNLINK = 10;
inline constexpr int CHDIR = 12;
inline constexpr int LSEEK = 19;
inline constexpr int EXECVE = 11;
inline constexpr int GETPID = 20;
inline constexpr int KILL = 37;
inline constexpr int RENAME = 38;
inline constexpr int MKDIR = 39;
inline constexpr int RMDIR = 40;
inline constexpr int DUP = 41;
inline constexpr int PIPE = 42;
inline constexpr int DUP2 = 63;
inline constexpr int GETPPID = 64;
inline constexpr int STAT = 106;
inline constexpr int IOCTL = 54;
inline constexpr int SIGACTION = 67;
inline constexpr int SELECT = 82;
inline constexpr int SOCKET = 281;
inline constexpr int BIND = 282;
inline constexpr int CONNECT = 283;
inline constexpr int LISTEN = 284;
inline constexpr int ACCEPT = 285;
inline constexpr int SOCKETPAIR = 288;
inline constexpr int SENDTO = 290;
inline constexpr int RECVFROM = 292;
inline constexpr int SHUTDOWN = 293;
inline constexpr int NULL_SYSCALL = 999; ///< lmbench's do-nothing probe

/**
 * Cider's new syscall, reachable from every persona (paper section
 * 4.3). Placed in the ARM private-syscall range.
 */
inline constexpr int SET_PERSONA = 983045;

} // namespace sysno

} // namespace cider::kernel

#endif // CIDER_KERNEL_LINUX_SYSCALLS_H
