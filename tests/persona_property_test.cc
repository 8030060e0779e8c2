/**
 * @file
 * Property tests for persona switching: across random switch/trap
 * sequences, each persona's TLS area keeps its own errno and thread
 * id, the active area always tracks the kernel-side persona, and the
 * dispatcher only ever accepts the matching trap classes.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "hw/device_profile.h"
#include "kernel/linux_syscalls.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"

namespace cider::persona {
namespace {

using kernel::Persona;
using kernel::TrapClass;

class PersonaProperty : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    PersonaProperty()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
    }

    kernel::Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    PersonaManager mgr_;
};

TEST_P(PersonaProperty, RandomSwitchScriptKeepsTlsConsistent)
{
    Rng rng(GetParam());
    kernel::Process &proc =
        kernel_.createProcess("prop", Persona::Ios);
    kernel::Thread &t = proc.mainThread();
    kernel::ThreadScope scope(t);

    // Distinct sentinel errnos per persona, refreshed as we go.
    int android_errno = 11, ios_errno = 35;
    ThreadTls::of(t).area(Persona::Android).setErrno(android_errno);
    ThreadTls::of(t).area(Persona::Ios).setErrno(ios_errno);

    std::uint64_t switches = 0;
    for (int step = 0; step < 300; ++step) {
        switch (rng.below(4)) {
          case 0: { // switch persona via the syscall
              Persona target = rng.chance(0.5) ? Persona::Android
                                               : Persona::Ios;
              TrapClass cls = t.persona() == Persona::Ios
                                  ? TrapClass::XnuBsd
                                  : TrapClass::LinuxSyscall;
              kernel_.trap(t, cls, kernel::sysno::SET_PERSONA,
                           kernel::makeArgs(
                               static_cast<std::uint64_t>(target)));
              ++switches;
              ASSERT_EQ(t.persona(), target);
              break;
          }
          case 1: { // update the active persona's errno
              int value = static_cast<int>(rng.range(1, 90));
              ThreadTls::of(t).active().setErrno(value);
              if (t.persona() == Persona::Android)
                  android_errno = value;
              else
                  ios_errno = value;
              break;
          }
          case 2: { // a persona-appropriate null syscall succeeds
              TrapClass cls = t.persona() == Persona::Ios
                                  ? TrapClass::XnuBsd
                                  : TrapClass::LinuxSyscall;
              int nr = t.persona() == Persona::Ios
                           ? xnu::xnuno::NULL_SYSCALL
                           : kernel::sysno::NULL_SYSCALL;
              ASSERT_TRUE(
                  kernel_.trap(t, cls, nr, kernel::makeArgs()).ok());
              break;
          }
          default: { // a mismatched trap class is rejected
              setLogQuiet(true);
              TrapClass wrong = t.persona() == Persona::Ios
                                    ? TrapClass::LinuxSyscall
                                    : TrapClass::XnuBsd;
              int nr = t.persona() == Persona::Ios
                           ? kernel::sysno::NULL_SYSCALL
                           : xnu::xnuno::NULL_SYSCALL;
              kernel::SyscallResult r =
                  kernel_.trap(t, wrong, nr, kernel::makeArgs());
              EXPECT_FALSE(r.ok());
              setLogQuiet(false);
              break;
          }
        }

        // Invariants after every step.
        ThreadTls &tls = ThreadTls::of(t);
        ASSERT_EQ(tls.activePersona(), t.persona());
        ASSERT_EQ(tls.area(Persona::Android).errnoValue(),
                  android_errno);
        ASSERT_EQ(tls.area(Persona::Ios).errnoValue(), ios_errno);
    }
    EXPECT_EQ(mgr_.personaSwitches(), switches);
}

TEST_P(PersonaProperty, TlsAreasAreFullyIndependentPerThread)
{
    Rng rng(GetParam() ^ 0x51de);
    kernel::Process &proc =
        kernel_.createProcess("multi", Persona::Ios);
    std::vector<kernel::Thread *> threads{&proc.mainThread()};
    for (int i = 0; i < 3; ++i)
        threads.push_back(&proc.createThread(
            rng.chance(0.5) ? Persona::Ios : Persona::Android));

    // Give every (thread, persona) pair a unique errno.
    int next = 1;
    std::map<std::pair<kernel::Tid, Persona>, int> expected;
    for (kernel::Thread *t : threads)
        for (Persona p : {Persona::Android, Persona::Ios}) {
            ThreadTls::of(*t).area(p).setErrno(next);
            expected[{t->tid(), p}] = next++;
        }

    // Random persona churn on random threads must not cross-talk.
    for (int step = 0; step < 100; ++step) {
        kernel::Thread *t =
            threads[rng.below(threads.size())];
        mgr_.setPersona(*t, rng.chance(0.5) ? Persona::Android
                                            : Persona::Ios);
        for (kernel::Thread *check : threads)
            for (Persona p : {Persona::Android, Persona::Ios})
                ASSERT_EQ(ThreadTls::of(*check).area(p).errnoValue(),
                          (expected[{check->tid(), p}]));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersonaProperty,
                         ::testing::Values(3, 7, 31, 127, 8191));

} // namespace
} // namespace cider::persona
