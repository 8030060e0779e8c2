#include "xnu/mach_traps.h"

#include "kernel/kernel.h"
#include "kernel/trap_context.h"
#include "xnu/psynch.h"

namespace cider::xnu {

using kernel::SyscallResult;
using kernel::SyscallTable;
using kernel::TrapContext;

MachTaskState &
machTask(MachIpc &ipc, kernel::Process &proc)
{
    MachTaskState &state = proc.ext().get<MachTaskState>(
        kernel::ProcessSlot::MachTask);
    if (!state.space) {
        state.space = ipc.createSpace();
        // Every task owns a task-self receive port, as on XNU.
        ipc.portAllocate(*state.space, PortRight::Receive,
                         &state.taskSelf);
    }
    return state;
}

void
setBootstrapPort(MachIpc &ipc, kernel::Process &proc,
                 const PortPtr &bootstrap)
{
    MachTaskState &state = machTask(ipc, proc);
    mach_port_name_t name = MACH_PORT_NULL;
    if (ipc.insertSendRight(*state.space, bootstrap, &name) ==
        KERN_SUCCESS)
        state.bootstrapPort = name;
}

namespace {

SyscallResult
kr(kern_return_t code)
{
    // Mach traps hand kern_return_t straight back in the return
    // register; they do not use the BSD carry-flag convention.
    return SyscallResult::success(code);
}

MachIpc &
ipcOf(void *user)
{
    return *static_cast<MachIpc *>(user);
}

PsynchSubsystem &
psynchOf(void *user)
{
    return *static_cast<PsynchSubsystem *>(user);
}

} // namespace

void
buildMachTrapTable(SyscallTable &tbl, MachIpc &ipc, PsynchSubsystem &psynch)
{
    tbl.set(machno::PORT_ALLOCATE, "mach_port_allocate",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                auto right = static_cast<PortRight>(c.args.u64(0));
                auto *out =
                    static_cast<mach_port_name_t *>(c.args.ptr(1));
                return kr(ipc.portAllocate(*task.space, right, out));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::PORT_DESTROY, "mach_port_destroy",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return kr(ipc.portDestroy(
                    *task.space,
                    static_cast<mach_port_name_t>(c.args.u64(0))));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::PORT_DEALLOCATE, "mach_port_deallocate",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return kr(ipc.portDeallocate(
                    *task.space,
                    static_cast<mach_port_name_t>(c.args.u64(0))));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::PORT_INSERT_RIGHT, "mach_port_insert_right",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return kr(ipc.portInsertRight(
                    *task.space,
                    static_cast<mach_port_name_t>(c.args.u64(0)),
                    static_cast<MsgDisposition>(c.args.u64(1))));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::MACH_REPLY_PORT, "mach_reply_port",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                mach_port_name_t name = MACH_PORT_NULL;
                ipc.portAllocate(*task.space, PortRight::Receive, &name);
                return SyscallResult::success(name);
            },
            &ipc);

    tbl.set(machno::TASK_SELF, "task_self",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return SyscallResult::success(task.taskSelf);
            },
            &ipc);

    tbl.set(machno::THREAD_SELF, "thread_self",
            [](TrapContext &c, void *) {
                return SyscallResult::success(c.thread.tid());
            });

    tbl.set(machno::HOST_SELF, "host_self", [](TrapContext &, void *) {
        return SyscallResult::success(1);
    });

    tbl.set(machno::GET_BOOTSTRAP_PORT, "task_get_bootstrap_port",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return SyscallResult::success(task.bootstrapPort);
            },
            &ipc);

    tbl.set(machno::MACH_MSG, "mach_msg",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                auto *send_msg =
                    static_cast<MachMessage *>(c.args.ptr(0));
                std::uint64_t options = c.args.u64(1);
                auto rcv_name =
                    static_cast<mach_port_name_t>(c.args.u64(2));
                auto *rcv_msg =
                    static_cast<MachMessage *>(c.args.ptr(3));
                // Optional 5th argument: timeout in virtual ns,
                // consumed by RCV_TIMEOUT / SEND_TIMEOUT.
                std::uint64_t timeout_ns =
                    c.args.size() > 4 ? c.args.u64(4) : 0;

                if ((options & machmsg::SEND) && send_msg) {
                    SendOptions sopts;
                    if ((options & machmsg::SEND_TIMEOUT) != 0) {
                        sopts.hasTimeout = true;
                        sopts.timeoutNs = timeout_ns;
                    }
                    kern_return_t code = ipc.msgSend(
                        *task.space, std::move(*send_msg), sopts);
                    if (code != KERN_SUCCESS)
                        return kr(code);
                }
                if ((options & machmsg::RCV) && rcv_msg) {
                    RcvOptions opts;
                    // OOL regions land as COW mappings in the
                    // receiving task's address space, not as copies.
                    opts.mapInto = &c.thread.process().mem();
                    if ((options & machmsg::RCV_TIMEOUT) != 0) {
                        // A real timeout arms a bounded virtual-time
                        // wait; zero (or no argument) keeps the
                        // historical poll semantics.
                        if (timeout_ns > 0) {
                            opts.hasTimeout = true;
                            opts.timeoutNs = timeout_ns;
                        } else {
                            opts.nonblocking = true;
                        }
                    }
                    return kr(ipc.msgReceive(*task.space, rcv_name,
                                             *rcv_msg, opts));
                }
                return kr(KERN_SUCCESS);
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::PORT_SET_INSERT, "mach_port_move_member",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return kr(ipc.portSetInsert(
                    *task.space,
                    static_cast<mach_port_name_t>(c.args.u64(0)),
                    static_cast<mach_port_name_t>(c.args.u64(1))));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::PORT_SET_REMOVE, "mach_port_set_remove",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return kr(ipc.portSetRemove(
                    *task.space,
                    static_cast<mach_port_name_t>(c.args.u64(0))));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::REQUEST_NOTIFY, "mach_port_request_notification",
            [](TrapContext &c, void *u) {
                MachIpc &ipc = ipcOf(u);
                MachTaskState &task = machTask(ipc, c.thread.process());
                return kr(ipc.requestDeadNameNotification(
                    *task.space,
                    static_cast<mach_port_name_t>(c.args.u64(0)),
                    static_cast<mach_port_name_t>(c.args.u64(1))));
            },
            &ipc)
        .returnsKr = true;

    tbl.set(machno::VM_ALLOCATE, "mach_vm_allocate",
            [](TrapContext &c, void *) {
                std::uint64_t size = c.args.u64(0);
                auto *out_addr =
                    static_cast<std::uint64_t *>(c.args.ptr(1));
                std::uint64_t pages =
                    (size + kernel::kVmPageBytes - 1) /
                    kernel::kVmPageBytes;
                std::uint64_t addr =
                    c.thread.process().mem().allocate("vm_allocate",
                                                      pages);
                if (addr == 0)
                    return kr(KERN_RESOURCE_SHORTAGE);
                if (out_addr)
                    *out_addr = addr;
                return kr(KERN_SUCCESS);
            })
        .returnsKr = true;

    tbl.set(machno::VM_DEALLOCATE, "mach_vm_deallocate",
            [](TrapContext &c, void *) {
                bool ok = c.thread.process().mem().deallocate(
                    c.args.u64(0));
                return kr(ok ? KERN_SUCCESS : KERN_INVALID_ADDRESS);
            })
        .returnsKr = true;

    tbl.set(machno::VM_WRITE, "mach_vm_write",
            [](TrapContext &c, void *) {
                const Bytes *src = c.args.cbytes(1);
                int rc = c.thread.process().mem().write(c.args.u64(0),
                                                        *src);
                if (rc == -2)
                    return kr(KERN_FAILURE); // injected paging error
                return kr(rc == 0 ? KERN_SUCCESS
                                  : KERN_INVALID_ADDRESS);
            })
        .returnsKr = true;

    tbl.set(machno::VM_READ, "mach_vm_read",
            [](TrapContext &c, void *) {
                Bytes *out = c.args.bytes(2);
                int rc = c.thread.process().mem().read(
                    c.args.u64(0), c.args.u64(1), out);
                return kr(rc == 0 ? KERN_SUCCESS
                                  : KERN_INVALID_ADDRESS);
            })
        .returnsKr = true;

    tbl.set(machno::SEMAPHORE_WAIT, "semaphore_wait",
            [](TrapContext &c, void *u) {
                // Optional 2nd argument: timeout in virtual ns
                // (semaphore_timedwait folded into the same trap).
                if (c.args.size() > 1)
                    return kr(psynchOf(u).semWaitDeadline(
                        c.args.u64(0), c.args.u64(1)));
                return kr(psynchOf(u).semWait(c.args.u64(0)));
            },
            &psynch)
        .returnsKr = true;

    tbl.set(machno::SEMAPHORE_SIGNAL, "semaphore_signal",
            [](TrapContext &c, void *u) {
                return kr(psynchOf(u).semSignal(c.args.u64(0)));
            },
            &psynch)
        .returnsKr = true;
}

} // namespace cider::xnu
