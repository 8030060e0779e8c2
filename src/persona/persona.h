/**
 * @file
 * The multi-persona kernel extension: Cider's core mechanism.
 *
 * Installing a PersonaManager turns the vanilla domestic kernel into
 * a Cider kernel:
 *
 *  - the trap dispatcher is replaced by a multi-persona dispatcher
 *    that checks the calling thread's persona on *every* trap (the
 *    ~8.5% null-syscall overhead of Figure 5), selects among the
 *    Linux / XNU-BSD / Mach / machine-dependent dispatch tables, and
 *    converts XNU arguments and calling conventions onto the Linux
 *    implementations (the further ~40% overhead for iOS binaries);
 *  - the signal delivery hook translates numbering, siginfo layout,
 *    and frame size for foreign-persona receivers;
 *  - the set_persona syscall — reachable from every persona and every
 *    trap class — switches a thread's kernel ABI and active TLS area,
 *    the primitive that diplomatic functions are built on.
 */

#ifndef CIDER_PERSONA_PERSONA_H
#define CIDER_PERSONA_PERSONA_H

#include <memory>

#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "persona/tls.h"
#include "xnu/mach_ipc.h"
#include "xnu/psynch.h"

namespace cider::persona {

/** Tunable mechanism costs, expressed in CPU cycles. */
struct PersonaCosts
{
    /** Per-trap persona check in the Cider kernel (any persona). */
    double personaCheckCycles = 44;
    /** XNU->Linux argument/flag translation per BSD syscall. */
    double xnuConventionCycles = 164;
    /** Mach trap entry normalisation. */
    double machTrapCycles = 80;
    /** set_persona: swap kernel ABI + TLS pointers. */
    double setPersonaCycles = 260;
    /** Receiver-persona lookup during signal delivery. */
    double signalLookupCycles = 195;
    /** Extra signal translation + larger iOS frame materialisation. */
    double iosSignalTranslateCycles = 1430;
};

/**
 * Machine-dependent trap numbers (TrapClass::XnuMdep): XNU's ARM
 * fast traps for cache maintenance and the user TLS base register —
 * the fourth of the "four different ways" an iOS binary enters the
 * kernel (paper section 4.1).
 */
namespace mdepno {

inline constexpr int ICACHE_FLUSH = 0;
inline constexpr int SET_TLS_BASE = 2; ///< thread_set_cthread_self
inline constexpr int GET_TLS_BASE = 3; ///< thread_get_cthread_self

} // namespace mdepno

/**
 * Owns the foreign dispatch tables and wires the Cider mechanisms
 * into a kernel. Keep it alive as long as the kernel runs.
 */
class PersonaManager
{
  public:
    PersonaManager(kernel::Kernel &k, xnu::MachIpc &ipc,
                   xnu::PsynchSubsystem &psynch,
                   const PersonaCosts &costs = {});

    /** Replace the kernel's dispatcher and signal hook. */
    void install();

    /** The set_persona implementation called directly, not as a
     *  syscall: switches kernel ABI selection and the active TLS
     *  area, and writes the switch's one trace record. */
    void setPersona(kernel::Thread &t, kernel::Persona p);

    kernel::SyscallTable &xnuBsdTable() { return xnuBsd_; }
    kernel::SyscallTable &machTable() { return mach_; }
    const PersonaCosts &costs() const { return costs_; }

    /** Count of persona switches performed (ablation metric), by
     *  trap or direct call: the kernel's TrapStats counts each once. */
    std::uint64_t
    personaSwitches() const
    {
        return kernel_.trapStats().personaSwitches();
    }

  private:
    friend class MultiPersonaDispatcher;
    friend class PersonaSignalHook;

    /** The switch without its trace record: a set_persona trap's
     *  record is written once, at trap exit (TrapStats::recordTrap). */
    void switchTo(kernel::Thread &t, kernel::Persona p);

    kernel::Kernel &kernel_;
    xnu::MachIpc &ipc_;
    xnu::PsynchSubsystem &psynch_;
    PersonaCosts costs_;
    kernel::SyscallTable xnuBsd_;
    kernel::SyscallTable mach_;
    kernel::SyscallTable mdep_;
    /** The per-trap persona check and set_persona costs in ns, on the
     *  kernel's profile: both inputs are fixed at construction. */
    std::uint64_t personaCheckNs_;
    std::uint64_t setPersonaNs_;
};

/** The syscall number understood from every persona/table. */
using kernel::sysno::SET_PERSONA;

} // namespace cider::persona

#endif // CIDER_PERSONA_PERSONA_H
