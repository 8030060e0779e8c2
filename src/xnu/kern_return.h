/**
 * @file
 * XNU result codes and the Darwin errno vocabulary (foreign zone).
 *
 * Values follow the real XNU definitions so translation code (the
 * persona layer's errno maps) has something genuine to translate:
 * Darwin's errno numbering diverges from Linux above the historic
 * V7 range (e.g. EAGAIN is 35 on Darwin and 11 on Linux).
 */

#ifndef CIDER_XNU_KERN_RETURN_H
#define CIDER_XNU_KERN_RETURN_H

#include <cstdint>

namespace cider::xnu {

using kern_return_t = std::int32_t;

/// @{ kern_return_t values (subset used by the simulator).
inline constexpr kern_return_t KERN_SUCCESS = 0;
inline constexpr kern_return_t KERN_INVALID_ADDRESS = 1;
inline constexpr kern_return_t KERN_NO_SPACE = 3;
inline constexpr kern_return_t KERN_INVALID_ARGUMENT = 4;
inline constexpr kern_return_t KERN_FAILURE = 5;
inline constexpr kern_return_t KERN_RESOURCE_SHORTAGE = 6;
inline constexpr kern_return_t KERN_NAME_EXISTS = 13;
inline constexpr kern_return_t KERN_INVALID_NAME = 15;
inline constexpr kern_return_t KERN_INVALID_TASK = 16;
inline constexpr kern_return_t KERN_INVALID_RIGHT = 17;
inline constexpr kern_return_t KERN_INVALID_VALUE = 18;
inline constexpr kern_return_t KERN_UREFS_OVERFLOW = 19;
inline constexpr kern_return_t KERN_INVALID_CAPABILITY = 20;
inline constexpr kern_return_t KERN_NOT_IN_SET = 12;
inline constexpr kern_return_t KERN_OPERATION_TIMED_OUT = 49;

inline constexpr kern_return_t MACH_SEND_INVALID_DEST = 0x10000003;
inline constexpr kern_return_t MACH_SEND_TIMED_OUT = 0x10000004;
inline constexpr kern_return_t MACH_SEND_INVALID_RIGHT = 0x10000007;
inline constexpr kern_return_t MACH_SEND_NO_BUFFER = 0x1000000d;
inline constexpr kern_return_t MACH_RCV_INVALID_NAME = 0x10004002;
inline constexpr kern_return_t MACH_RCV_TIMED_OUT = 0x10004003;
inline constexpr kern_return_t MACH_RCV_INTERRUPTED = 0x10004005;
inline constexpr kern_return_t MACH_RCV_PORT_DIED = 0x10004008;
inline constexpr kern_return_t MACH_RCV_PORT_CHANGED = 0x10004006;
/// @}

/** Darwin errno values (the foreign user space's vocabulary). */
namespace derr {

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
inline constexpr int DEADLK = 11;
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
inline constexpr int AGAIN = 35;       // Linux: 11
inline constexpr int INPROGRESS = 36;  // Linux: 115
inline constexpr int ALREADY = 37;     // Linux: 114
inline constexpr int NOTSOCK = 38;     // Linux: 88
inline constexpr int ADDRINUSE = 48;   // Linux: 98
inline constexpr int CONNREFUSED = 61; // Linux: 111
inline constexpr int NAMETOOLONG = 63; // Linux: 36
inline constexpr int NOSYS = 78;       // Linux: 38
inline constexpr int NOTEMPTY = 66;    // Linux: 39

} // namespace derr

} // namespace cider::xnu

#endif // CIDER_XNU_KERN_RETURN_H
