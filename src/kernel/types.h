/**
 * @file
 * Shared identifiers, errno values, and the syscall calling
 * convention used across the simulated domestic (Linux) kernel.
 */

#ifndef CIDER_KERNEL_TYPES_H
#define CIDER_KERNEL_TYPES_H

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "base/bytes.h"

namespace cider::kernel {

using Pid = int;
using Tid = int;
using Fd = int;

/**
 * Execution mode of a thread. Cider tracks a persona per thread (not
 * per process), inherits it across fork/clone, and lets one process
 * host threads of different personas simultaneously (paper section 4).
 */
enum class Persona
{
    Android, ///< domestic: Linux ABI, bionic TLS layout
    Ios,     ///< foreign: XNU ABI, Darwin TLS layout
};

/** Human-readable persona name for logs and tests. */
const char *personaName(Persona p);

/**
 * How a thread trapped into the kernel. Linux has one entry path;
 * XNU-built binaries use four distinct trap classes (paper section
 * 4.1: "iOS apps can trap into the kernel in four different ways").
 */
enum class TrapClass
{
    LinuxSyscall, ///< domestic svc entry
    XnuBsd,       ///< XNU positive syscall numbers (BSD layer)
    XnuMach,      ///< XNU negative numbers (Mach traps)
    XnuMdep,      ///< machine-dependent fast traps (TLS pointer etc.)
    XnuDiag,      ///< diagnostics entry
};

const char *trapClassName(TrapClass c);

/**
 * Raw result of a syscall before the persona layer applies a calling
 * convention. Linux reports failure as a negative errno in the return
 * register; XNU returns a positive errno and signals failure through
 * a CPU carry flag. Handlers fill @ref err with a *Linux* errno (the
 * domestic kernel's native vocabulary); convention and errno-value
 * translation happen at the dispatch boundary.
 */
struct SyscallResult
{
    std::int64_t value = 0;
    int err = 0; ///< 0 on success; Linux errno otherwise

    bool ok() const { return err == 0; }

    static SyscallResult success(std::int64_t v = 0) { return {v, 0}; }
    static SyscallResult failure(int e) { return {-1, e}; }
};

/**
 * A syscall argument. The simulator passes structured values instead
 * of user-space pointers; buffers are passed by pointer to host
 * memory owned by the caller.
 */
using Arg = std::variant<std::monostate, std::uint64_t, std::int64_t,
                         double, std::string, Bytes *, const Bytes *,
                         void *>;

/**
 * A syscall handler asked for an argument the caller did not supply
 * (or supplied with the wrong type). Foreign user space controls the
 * argument vector, so this must not panic the simulator: the trap
 * dispatcher catches it, fails the trap with EINVAL, and counts it in
 * TrapStats as a bad-argument trap.
 */
class BadSyscallArg : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Argument vector handed to syscall handlers. */
struct SyscallArgs
{
    std::vector<Arg> args;

    std::uint64_t u64(std::size_t i) const;
    std::int64_t i64(std::size_t i) const;
    int i32(std::size_t i) const { return static_cast<int>(i64(i)); }
    const std::string &str(std::size_t i) const;
    Bytes *bytes(std::size_t i) const;
    const Bytes *cbytes(std::size_t i) const;
    void *ptr(std::size_t i) const;

    std::size_t size() const { return args.size(); }
};

/** Convenience builder for syscall argument vectors: one allocation
 *  per vector. A one-argument vector skips the reserve; measured on
 *  the set_persona hop, the reserve call costs more than it saves. */
template <typename... As>
SyscallArgs
makeArgs(As &&...as)
{
    SyscallArgs sa;
    if constexpr (sizeof...(As) > 1)
        sa.args.reserve(sizeof...(As));
    (sa.args.emplace_back(std::forward<As>(as)), ...);
    return sa;
}

/**
 * Linux errno values (the domestic kernel's native error vocabulary).
 * Kept as an enum-like namespace so call sites read like kernel code.
 */
namespace lnx {

inline constexpr int PERM = 1;
inline constexpr int NOENT = 2;
inline constexpr int SRCH = 3;
inline constexpr int INTR = 4;
inline constexpr int IO = 5;
inline constexpr int NXIO = 6;
inline constexpr int TOOBIG = 7;
inline constexpr int NOEXEC = 8;
inline constexpr int BADF = 9;
inline constexpr int CHILD = 10;
inline constexpr int AGAIN = 11;
inline constexpr int NOMEM = 12;
inline constexpr int ACCES = 13;
inline constexpr int FAULT = 14;
inline constexpr int BUSY = 16;
inline constexpr int EXIST = 17;
inline constexpr int XDEV = 18;
inline constexpr int NODEV = 19;
inline constexpr int NOTDIR = 20;
inline constexpr int ISDIR = 21;
inline constexpr int INVAL = 22;
inline constexpr int NFILE = 23;
inline constexpr int MFILE = 24;
inline constexpr int NOTTY = 25;
inline constexpr int FBIG = 27;
inline constexpr int NOSPC = 28;
inline constexpr int SPIPE = 29;
inline constexpr int ROFS = 30;
inline constexpr int MLINK = 31;
inline constexpr int PIPE = 32;
inline constexpr int RANGE = 34;
inline constexpr int DEADLK = 35;
inline constexpr int NAMETOOLONG = 36;
inline constexpr int NOSYS = 38;
inline constexpr int NOTEMPTY = 39;
inline constexpr int NOTSOCK = 88;
inline constexpr int OPNOTSUPP = 95;
inline constexpr int ADDRINUSE = 98;
inline constexpr int ADDRNOTAVAIL = 99;
inline constexpr int NETUNREACH = 101;
inline constexpr int CONNRESET = 104;
inline constexpr int NOTCONN = 107;
inline constexpr int TIMEDOUT = 110;
inline constexpr int CONNREFUSED = 111;
inline constexpr int ALREADY = 114;
inline constexpr int INPROGRESS = 115;

} // namespace lnx

/** Linux signal numbers (ARM/generic). */
namespace lsig {

inline constexpr int HUP = 1;
inline constexpr int INT = 2;
inline constexpr int QUIT = 3;
inline constexpr int ILL = 4;
inline constexpr int TRAP = 5;
inline constexpr int ABRT = 6;
inline constexpr int BUS = 7;
inline constexpr int FPE = 8;
inline constexpr int KILL = 9;
inline constexpr int USR1 = 10;
inline constexpr int SEGV = 11;
inline constexpr int USR2 = 12;
inline constexpr int PIPE = 13;
inline constexpr int ALRM = 14;
inline constexpr int TERM = 15;
inline constexpr int STKFLT = 16;
inline constexpr int CHLD = 17;
inline constexpr int CONT = 18;
inline constexpr int STOP = 19;
inline constexpr int TSTP = 20;
inline constexpr int TTIN = 21;
inline constexpr int TTOU = 22;
inline constexpr int URG = 23;
inline constexpr int XCPU = 24;
inline constexpr int XFSZ = 25;
inline constexpr int VTALRM = 26;
inline constexpr int PROF = 27;
inline constexpr int WINCH = 28;
inline constexpr int IO = 29;
inline constexpr int PWR = 30;
inline constexpr int SYS = 31;
inline constexpr int COUNT = 32;

} // namespace lsig

} // namespace cider::kernel

#endif // CIDER_KERNEL_TYPES_H
