/**
 * @file
 * Mach trap table: XNU's negative-numbered kernel entry points.
 *
 * iOS binaries reach Mach services through a separate trap class with
 * negative syscall numbers — one of the "four different ways" an iOS
 * app traps into the kernel (paper section 4.1). The handlers here
 * route into the duct-taped Mach IPC and psynch subsystems.
 */

#ifndef CIDER_XNU_MACH_TRAPS_H
#define CIDER_XNU_MACH_TRAPS_H

#include "xnu/mach_ipc.h"

namespace cider::kernel {
class Kernel;
class Process;
class SyscallTable;
} // namespace cider::kernel

namespace cider::xnu {

class PsynchSubsystem;

/** Mach trap numbers (real values where XNU defines them). */
namespace machno {

/** _kernelrpc_mach_vm_allocate_trap / _deallocate_trap (real XNU trap
 *  numbers). vm_read / vm_write are MIG routines on real XNU; here
 *  they get trap numbers of their own so foreign user space reaches
 *  them through the same negative-number class. */
inline constexpr int VM_ALLOCATE = -10;
inline constexpr int VM_DEALLOCATE = -12;
inline constexpr int VM_READ = -23;
inline constexpr int VM_WRITE = -24;
inline constexpr int PORT_ALLOCATE = -16;
inline constexpr int PORT_DESTROY = -17;
inline constexpr int PORT_DEALLOCATE = -18;
inline constexpr int PORT_MOD_REFS = -19;
inline constexpr int PORT_INSERT_RIGHT = -21;
inline constexpr int MACH_REPLY_PORT = -26;
inline constexpr int THREAD_SELF = -27;
inline constexpr int TASK_SELF = -28;
inline constexpr int HOST_SELF = -29;
inline constexpr int MACH_MSG = -31;
inline constexpr int SEMAPHORE_SIGNAL = -33;
inline constexpr int SEMAPHORE_WAIT = -36;
inline constexpr int PORT_SET_INSERT = -40;
inline constexpr int PORT_SET_REMOVE = -41;
inline constexpr int REQUEST_NOTIFY = -44;
inline constexpr int GET_BOOTSTRAP_PORT = -45;

} // namespace machno

/** mach_msg option bits (mirroring MACH_SEND_MSG / MACH_RCV_MSG). */
namespace machmsg {

inline constexpr std::uint64_t SEND = 0x1;
inline constexpr std::uint64_t RCV = 0x2;
/** With a timeout argument > 0: bounded wait against virtual time;
 *  with no (or zero) timeout: poll, don't block. */
inline constexpr std::uint64_t RCV_TIMEOUT = 0x4;
/** Bound the send-side qlimit block by the timeout argument. */
inline constexpr std::uint64_t SEND_TIMEOUT = 0x8;

} // namespace machmsg

/**
 * Per-task Mach state, stored in the process's ProcessSlot::MachTask
 * slot. Created lazily on first Mach interaction; the system
 * layer grafts the bootstrap send right in at task creation.
 */
struct MachTaskState
{
    SpacePtr space;
    mach_port_name_t taskSelf = MACH_PORT_NULL;
    mach_port_name_t bootstrapPort = MACH_PORT_NULL;
};

/** Fetch (creating if needed) a process's Mach state. */
MachTaskState &machTask(MachIpc &ipc, kernel::Process &proc);

/** Graft a send right to @p bootstrap into @p proc's space. */
void setBootstrapPort(MachIpc &ipc, kernel::Process &proc,
                      const PortPtr &bootstrap);

/** Populate @p tbl with the Mach trap handlers. */
void buildMachTrapTable(kernel::SyscallTable &tbl, MachIpc &ipc,
                        PsynchSubsystem &psynch);

} // namespace cider::xnu

#endif // CIDER_XNU_MACH_TRAPS_H
