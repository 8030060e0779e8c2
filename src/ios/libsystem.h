/**
 * @file
 * libSystem: the Darwin libc/Mach layer iOS binaries link against.
 *
 * All kernel access goes through XNU trap classes. The POSIX calls are
 * persona::Libc on the iOS ABI: BSD syscalls with XNU numbers and the
 * carry-flag convention (failure = -1 with a *Darwin* errno placed in
 * the iOS TLS area), and the Darwin runtime registries — dyld
 * registers one exit callback per loaded image and iOS libraries
 * install many pthread_atfork callbacks, the two user-space costs that
 * dominate the fork/exit results in Figure 5. What only Darwin has is
 * here: posix_spawn, the psynch-backed pthread calls, Mach traps for
 * IPC, and the IOKit user client calls.
 */

#ifndef CIDER_IOS_LIBSYSTEM_H
#define CIDER_IOS_LIBSYSTEM_H

#include <string>
#include <vector>

#include "iokit/io_service.h"
#include "persona/libc.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_traps.h"

namespace cider::ios {

/** persona::Libc on the iOS ABI (Darwin signal numbers; waitpid
 *  traps as wait4), plus the calls only Darwin has. */
class LibSystem : public persona::Libc
{
  public:
    explicit LibSystem(binfmt::UserEnv &env)
        : Libc(env, persona::libcAbi(kernel::Persona::Ios))
    {}

    int posixSpawn(const std::string &path,
                   const std::vector<std::string> &argv);

    /// @{ psynch-backed pthread operations.
    int pthreadMutexLock(std::uint64_t mutex_addr);
    int pthreadMutexUnlock(std::uint64_t mutex_addr);
    /// @}

    /// @{ Mach layer.
    xnu::mach_port_name_t machPortAllocate(xnu::PortRight right);
    xnu::kern_return_t machPortDestroy(xnu::mach_port_name_t name);
    xnu::kern_return_t machMsgSend(xnu::MachMessage &msg);
    xnu::kern_return_t machMsgReceive(xnu::mach_port_name_t name,
                                      xnu::MachMessage &out,
                                      bool nonblocking = false);
    xnu::mach_port_name_t machTaskSelf();
    xnu::mach_port_name_t machReplyPort();
    xnu::mach_port_name_t bootstrapPort();
    xnu::kern_return_t
    requestDeadNameNotification(xnu::mach_port_name_t name,
                                xnu::mach_port_name_t notify);
    /// @}

    /// @{ IOKit user client.
    std::uint64_t ioServiceGetMatchingService(const std::string &name);
    std::string ioRegistryGetProperty(std::uint64_t entry_id,
                                      const std::string &key);
    xnu::kern_return_t
    ioConnectCallMethod(std::uint64_t entry_id, std::uint32_t selector,
                        const std::vector<std::int64_t> &input,
                        std::vector<std::int64_t> &output);
    /// @}

  private:
    kernel::SyscallResult mach(int nr, const kernel::SyscallArgs &args);
};

} // namespace cider::ios

#endif // CIDER_IOS_LIBSYSTEM_H
