#include "persona/persona.h"

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/trap_context.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_traps.h"
#include "xnu/xnu_signals.h"

namespace cider::persona {

using kernel::Persona;
using kernel::SyscallResult;
using kernel::SyscallTable;
using kernel::Thread;
using kernel::TrapClass;
using kernel::TrapContext;

namespace {

/** Per-thread machine-dependent state. */
struct MdepState
{
    std::uint64_t tlsBase = 0; ///< user cthread/TLS base register
};

MdepState &
mdepState(Thread &t)
{
    return t.ext().get<MdepState>(kernel::ThreadSlot::PersonaMdep);
}

/** The machine-dependent trap table: tiny register-level services
 *  that never reach the BSD or Mach layers on real XNU either. */
void
buildMdepTable(SyscallTable &tbl)
{
    tbl.set(mdepno::ICACHE_FLUSH, "icache_flush",
            [](TrapContext &, void *) { return SyscallResult::success(); });

    tbl.set(mdepno::SET_TLS_BASE, "set_tls_base",
            [](TrapContext &c, void *) {
                mdepState(c.thread).tlsBase = c.args.u64(0);
                return SyscallResult::success();
            });

    tbl.set(mdepno::GET_TLS_BASE, "get_tls_base",
            [](TrapContext &c, void *) {
                return SyscallResult::success(
                    static_cast<std::int64_t>(mdepState(c.thread).tlsBase));
            });
}

} // namespace

/**
 * The Cider trap dispatcher: one or more dispatch tables per persona,
 * switched by the calling thread's persona and trap class.
 */
class MultiPersonaDispatcher : public kernel::TrapDispatcher
{
  public:
    explicit MultiPersonaDispatcher(PersonaManager &mgr) : mgr_(mgr) {}

    const char *name() const override { return "cider-multipersona"; }

    SyscallResult
    dispatch(TrapContext &ctx) override
    {
        Thread &t = ctx.thread;

        // Persona check and handling on every syscall entry — the
        // 8.5% null-syscall cost of running Cider at all (Figure 5).
        charge(mgr_.personaCheckNs_);

        // set_persona is reachable from all personas and trap classes.
        if (ctx.nr == SET_PERSONA) {
            mgr_.switchTo(t, static_cast<Persona>(ctx.args.u64(0)));
            return SyscallResult::success();
        }

        const PersonaCosts &costs = mgr_.costs();
        const hw::DeviceProfile &profile = ctx.kernel.profile();

        const SyscallTable *table = nullptr;
        switch (ctx.cls) {
          case TrapClass::LinuxSyscall:
            // Only threads currently in the domestic persona use the
            // Linux ABI entry path.
            if (t.persona() == Persona::Android)
                table = &ctx.kernel.linuxTable();
            break;
          case TrapClass::XnuBsd:
            if (t.persona() == Persona::Ios) {
                // Translate parameters and CPU flags into the Linux
                // calling convention so the wrappers can invoke the
                // existing Linux implementations.
                charge(profile.cyclesToNs(costs.xnuConventionCycles));
                table = &mgr_.xnuBsd_;
            }
            break;
          case TrapClass::XnuMdep:
            if (t.persona() == Persona::Ios) {
                charge(profile.cyclesToNs(costs.machTrapCycles));
                table = &mgr_.mdep_;
            }
            break;
          case TrapClass::XnuMach:
          case TrapClass::XnuDiag:
            if (t.persona() == Persona::Ios) {
                charge(profile.cyclesToNs(costs.machTrapCycles));
                table = &mgr_.mach_;
            }
            break;
        }
        if (!table) {
            warn("trap class ", kernel::trapClassName(ctx.cls),
                 " rejected for persona ",
                 kernel::personaName(t.persona()));
            return SyscallResult::failure(kernel::lnx::NOSYS);
        }

        ctx.table = table;
        const SyscallTable::Entry *e = table->find(ctx.nr);
        if (!e) {
            SyscallResult r = SyscallResult::failure(kernel::lnx::NOSYS);
            if (ctx.cls == TrapClass::XnuBsd)
                r.err = xnu::linuxErrnoToXnu(r.err);
            return r;
        }
        ctx.entry = e;
        SyscallResult r = e->call(ctx);
        // Persona-tagged exit path: XNU BSD syscalls report failure
        // through a carry flag and a *Darwin* errno value, so the
        // boundary converts the Linux result before returning to the
        // foreign user space (a non-zero err models the carry flag).
        if (ctx.cls == TrapClass::XnuBsd && !r.ok())
            r.err = xnu::linuxErrnoToXnu(r.err);
        return r;
    }

  private:
    PersonaManager &mgr_;
};

/**
 * Persona-aware signal delivery: translates numbering and frame
 * layout when the receiving thread runs the foreign persona.
 */
class PersonaSignalHook : public kernel::SignalDeliveryHook
{
  public:
    explicit PersonaSignalHook(PersonaManager &mgr) : mgr_(mgr) {}

    int
    prepare(Thread &target, kernel::SigInfo &info) override
    {
        const PersonaCosts &costs = mgr_.costs();
        const hw::DeviceProfile &profile = mgr_.kernel_.profile();

        // Determining the persona of the target thread: the ~3%
        // signal-handler overhead of Figure 5.
        charge(profile.cyclesToNs(costs.signalLookupCycles));

        int linux_signo = info.signo;
        if (target.persona() == Persona::Ios) {
            // Translate the signal information and materialise the
            // larger delivery structure iOS binaries expect: the
            // further ~25% overhead of Figure 5.
            charge(profile.cyclesToNs(costs.iosSignalTranslateCycles));
            int xnu = xnu::linuxSigToXnu(linux_signo);
            if (xnu == 0) {
                warn("signal ", linux_signo,
                     " has no XNU counterpart; delivering raw");
                xnu = linux_signo;
            }
            info.signo = xnu;
            info.frameSize = 760; // XNU ucontext+siginfo frame
        } else {
            info.frameSize = 128;
        }
        return linux_signo;
    }

  private:
    PersonaManager &mgr_;
};

PersonaManager::PersonaManager(kernel::Kernel &k, xnu::MachIpc &ipc,
                               xnu::PsynchSubsystem &psynch,
                               const PersonaCosts &costs)
    : kernel_(k), ipc_(ipc), psynch_(psynch), costs_(costs),
      xnuBsd_("xnu-bsd"), mach_("xnu-mach"), mdep_("xnu-mdep"),
      personaCheckNs_(k.profile().cyclesToNs(costs.personaCheckCycles)),
      setPersonaNs_(k.profile().cyclesToNs(costs.setPersonaCycles))
{
    xnu::buildXnuBsdTable(xnuBsd_, k.linuxTable(), psynch_);
    xnu::buildMachTrapTable(mach_, ipc_, psynch_);
    buildMdepTable(mdep_);
}

void
PersonaManager::install()
{
    kernel_.setDispatcher(
        std::make_unique<MultiPersonaDispatcher>(*this));
    kernel_.setSignalHook(std::make_unique<PersonaSignalHook>(*this));
    // Make the foreign tables visible to the kernel's stats subsystem
    // so /proc/cider/trapstats covers every trap class.
    kernel_.trapStats().attachTable(xnuBsd_);
    kernel_.trapStats().attachTable(mach_);
    kernel_.trapStats().attachTable(mdep_);
}

void
PersonaManager::setPersona(kernel::Thread &t, kernel::Persona p)
{
    kernel::Persona from = t.persona();
    switchTo(t, p);
    kernel_.trapStats().recordPersonaSwitch(t, from, p);
}

void
PersonaManager::switchTo(kernel::Thread &t, kernel::Persona p)
{
    // Swap the kernel ABI selection and the TLS area pointer; any
    // later kernel trap or TLS access uses the new persona's state.
    charge(setPersonaNs_);
    t.setPersona(p);
    ThreadTls::of(t).activate(p);
}

} // namespace cider::persona
