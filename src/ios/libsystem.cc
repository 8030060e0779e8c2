#include "ios/libsystem.h"

namespace cider::ios {

using kernel::SyscallArgs;
using kernel::SyscallResult;
using kernel::TrapClass;
namespace nr = xnu::xnuno;
namespace mnr = xnu::machno;

SyscallResult
LibSystem::mach(int nr, const SyscallArgs &args)
{
    return env_.kernel.trap(env_.thread, TrapClass::XnuMach, nr, args);
}

int
LibSystem::posixSpawn(const std::string &path,
                      const std::vector<std::string> &argv)
{
    std::vector<std::string> argv_copy = argv;
    return static_cast<int>(
        sys(nr::POSIX_SPAWN, path, static_cast<void *>(&argv_copy)));
}

int
LibSystem::pthreadMutexLock(std::uint64_t mutex_addr)
{
    return static_cast<int>(sys(nr::PSYNCH_MUTEXWAIT, mutex_addr));
}

int
LibSystem::pthreadMutexUnlock(std::uint64_t mutex_addr)
{
    return static_cast<int>(sys(nr::PSYNCH_MUTEXDROP, mutex_addr));
}

xnu::mach_port_name_t
LibSystem::machPortAllocate(xnu::PortRight right)
{
    xnu::mach_port_name_t name = xnu::MACH_PORT_NULL;
    SyscallResult r = mach(
        mnr::PORT_ALLOCATE,
        kernel::makeArgs(static_cast<std::uint64_t>(right),
                         static_cast<void *>(&name)));
    if (!r.ok() || r.value != xnu::KERN_SUCCESS)
        return xnu::MACH_PORT_NULL;
    return name;
}

xnu::kern_return_t
LibSystem::machPortDestroy(xnu::mach_port_name_t name)
{
    return static_cast<xnu::kern_return_t>(
        mach(mnr::PORT_DESTROY,
             kernel::makeArgs(static_cast<std::uint64_t>(name)))
            .value);
}

xnu::kern_return_t
LibSystem::machMsgSend(xnu::MachMessage &msg)
{
    return static_cast<xnu::kern_return_t>(
        mach(mnr::MACH_MSG,
             kernel::makeArgs(static_cast<void *>(&msg),
                              xnu::machmsg::SEND, std::uint64_t{0},
                              static_cast<void *>(nullptr)))
            .value);
}

xnu::kern_return_t
LibSystem::machMsgReceive(xnu::mach_port_name_t name,
                          xnu::MachMessage &out, bool nonblocking)
{
    std::uint64_t options = xnu::machmsg::RCV;
    if (nonblocking)
        options |= xnu::machmsg::RCV_TIMEOUT;
    return static_cast<xnu::kern_return_t>(
        mach(mnr::MACH_MSG,
             kernel::makeArgs(static_cast<void *>(nullptr), options,
                              static_cast<std::uint64_t>(name),
                              static_cast<void *>(&out)))
            .value);
}

xnu::mach_port_name_t
LibSystem::machTaskSelf()
{
    return static_cast<xnu::mach_port_name_t>(
        mach(mnr::TASK_SELF, kernel::makeArgs()).value);
}

xnu::mach_port_name_t
LibSystem::machReplyPort()
{
    return static_cast<xnu::mach_port_name_t>(
        mach(mnr::MACH_REPLY_PORT, kernel::makeArgs()).value);
}

xnu::mach_port_name_t
LibSystem::bootstrapPort()
{
    return static_cast<xnu::mach_port_name_t>(
        mach(mnr::GET_BOOTSTRAP_PORT, kernel::makeArgs()).value);
}

xnu::kern_return_t
LibSystem::requestDeadNameNotification(xnu::mach_port_name_t name,
                                       xnu::mach_port_name_t notify)
{
    return static_cast<xnu::kern_return_t>(
        mach(mnr::REQUEST_NOTIFY,
             kernel::makeArgs(static_cast<std::uint64_t>(name),
                              static_cast<std::uint64_t>(notify)))
            .value);
}

std::uint64_t
LibSystem::ioServiceGetMatchingService(const std::string &name)
{
    return static_cast<std::uint64_t>(
        mach(iokit::iokitno::GET_MATCHING_SERVICE,
             kernel::makeArgs(name))
            .value);
}

std::string
LibSystem::ioRegistryGetProperty(std::uint64_t entry_id,
                                 const std::string &key)
{
    std::string out;
    mach(iokit::iokitno::GET_PROPERTY,
         kernel::makeArgs(entry_id, key, static_cast<void *>(&out)));
    return out;
}

xnu::kern_return_t
LibSystem::ioConnectCallMethod(std::uint64_t entry_id,
                               std::uint32_t selector,
                               const std::vector<std::int64_t> &input,
                               std::vector<std::int64_t> &output)
{
    iokit::IoConnectArgs io;
    io.input = input;
    SyscallResult r =
        mach(iokit::iokitno::CONNECT_CALL_METHOD,
             kernel::makeArgs(entry_id,
                              static_cast<std::uint64_t>(selector),
                              static_cast<void *>(&io)));
    output = std::move(io.output);
    return static_cast<xnu::kern_return_t>(r.value);
}

} // namespace cider::ios
