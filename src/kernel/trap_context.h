/**
 * @file
 * TrapContext: the single record threaded through the whole trap path.
 *
 * Kernel::trap() materialises one TrapContext per kernel entry and
 * hands it to the installed TrapDispatcher, which resolves the target
 * dispatch table and handler entry into it before invoking the
 * handler. Handlers receive the context instead of the old loose
 * (Kernel&, Thread&, SyscallArgs&) triple, so every layer — persona
 * check, convention translation, the syscall body, and the stats/trace
 * subsystem on the way out — sees the same trap record.
 */

#ifndef CIDER_KERNEL_TRAP_CONTEXT_H
#define CIDER_KERNEL_TRAP_CONTEXT_H

#include <cstdint>

#include "kernel/kernel.h"
#include "kernel/thread.h"
#include "kernel/types.h"

namespace cider::kernel {

/**
 * One kernel entry from user space. Created once at Kernel::trap(),
 * filled in as the trap flows down the dispatch layers, and read back
 * by the stats subsystem at trap exit.
 */
struct TrapContext
{
    Kernel &kernel;
    Thread &thread;
    TrapClass cls;
    int nr;
    /** The caller's argument list, lent for the trap. */
    const SyscallArgs &args;

    /** Persona of the calling thread at trap entry (set_persona can
     *  change the thread's persona mid-trap). */
    Persona entryPersona;

    /** Virtual time of the calling thread at trap entry; the stats
     *  layer derives per-syscall latency from the CostClock delta. */
    std::uint64_t enterNs = 0;

    /** Dispatch table the dispatcher selected (null when the trap was
     *  rejected before table select, e.g. wrong persona). */
    const SyscallTable *table = nullptr;

    /** Handler entry the table lookup resolved (null on unknown nr). */
    const SyscallTable::Entry *entry = nullptr;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_TRAP_CONTEXT_H
