/**
 * @file
 * Persona-layer tests: per-thread persona dispatch, the four XNU
 * trap classes, set_persona + TLS swapping, calling-convention
 * translation, persona-aware signal delivery, and the measured
 * mechanism overheads (null syscall +8.5% / +40%).
 */

#include <gtest/gtest.h>

#include "hw/device_profile.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "base/logging.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_traps.h"
#include "xnu/xnu_signals.h"

namespace cider::persona {
namespace {

using kernel::Persona;
using kernel::SyscallResult;
using kernel::TrapClass;

class PersonaTest : public ::testing::Test
{
  protected:
    PersonaTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        android_ = &kernel_.createProcess("droid", Persona::Android);
        ios_ = &kernel_.createProcess("iapp", Persona::Ios);
    }

    SyscallResult
    trapAs(kernel::Thread &t, TrapClass cls, int nr)
    {
        kernel::ThreadScope scope(t);
        return kernel_.trap(t, cls, nr, kernel::makeArgs());
    }

    kernel::Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    PersonaManager mgr_;
    kernel::Process *android_;
    kernel::Process *ios_;
};

TEST_F(PersonaTest, DispatchTableSelectedByPersona)
{
    // Android thread, Linux trap: OK.
    EXPECT_TRUE(trapAs(android_->mainThread(), TrapClass::LinuxSyscall,
                       kernel::sysno::NULL_SYSCALL)
                    .ok());
    // iOS thread, XNU BSD trap: OK.
    EXPECT_TRUE(trapAs(ios_->mainThread(), TrapClass::XnuBsd,
                       xnu::xnuno::NULL_SYSCALL)
                    .ok());
    setLogQuiet(true);
    // Android thread making an XNU trap: rejected.
    EXPECT_EQ(trapAs(android_->mainThread(), TrapClass::XnuBsd,
                     xnu::xnuno::NULL_SYSCALL)
                  .err,
              kernel::lnx::NOSYS);
    // iOS thread making a Linux trap: rejected.
    EXPECT_EQ(trapAs(ios_->mainThread(), TrapClass::LinuxSyscall,
                     kernel::sysno::NULL_SYSCALL)
                  .err,
              kernel::lnx::NOSYS);
    setLogQuiet(false);
}

TEST_F(PersonaTest, MachTrapClassRoutesToMachTable)
{
    kernel::Thread &t = ios_->mainThread();
    kernel::ThreadScope scope(t);
    SyscallResult r = kernel_.trap(t, TrapClass::XnuMach,
                                   xnu::machno::TASK_SELF,
                                   kernel::makeArgs());
    EXPECT_TRUE(r.ok());
    EXPECT_NE(r.value, 0); // a task-self port name
}

TEST_F(PersonaTest, SetPersonaReachableFromEveryPersonaAndClass)
{
    kernel::Thread &t = ios_->mainThread();
    kernel::ThreadScope scope(t);

    // From iOS persona via the XNU BSD class.
    kernel_.trap(t, TrapClass::XnuBsd, SET_PERSONA,
                 kernel::makeArgs(static_cast<std::uint64_t>(
                     Persona::Android)));
    EXPECT_EQ(t.persona(), Persona::Android);

    // Back from the Android persona via the Linux class.
    kernel_.trap(t, TrapClass::LinuxSyscall, SET_PERSONA,
                 kernel::makeArgs(
                     static_cast<std::uint64_t>(Persona::Ios)));
    EXPECT_EQ(t.persona(), Persona::Ios);
    EXPECT_EQ(mgr_.personaSwitches(), 2u);
}

TEST_F(PersonaTest, SetPersonaSwapsActiveTlsArea)
{
    kernel::Thread &t = ios_->mainThread();
    kernel::ThreadScope scope(t);

    ThreadTls &tls = ThreadTls::of(t);
    tls.area(Persona::Ios).setErrno(35);     // Darwin EAGAIN
    tls.area(Persona::Android).setErrno(11); // Linux EAGAIN

    EXPECT_EQ(tls.activePersona(), Persona::Ios);
    EXPECT_EQ(tls.active().errnoValue(), 35);

    mgr_.setPersona(t, Persona::Android);
    EXPECT_EQ(ThreadTls::of(t).active().errnoValue(), 11);
    // The layouts really differ: errno lives at different offsets.
    EXPECT_NE(androidTlsLayout().errnoOffset,
              iosTlsLayout().errnoOffset);
    EXPECT_NE(androidTlsLayout().size, iosTlsLayout().size);
}

TEST_F(PersonaTest, XnuBsdFailureUsesCarryConventionWithDarwinErrno)
{
    kernel::Thread &t = ios_->mainThread();
    kernel::ThreadScope scope(t);
    // open() of a missing file without O_CREAT.
    SyscallResult r = kernel_.trap(
        t, TrapClass::XnuBsd, xnu::xnuno::OPEN,
        kernel::makeArgs(std::string("/missing"), std::int64_t{0}));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.err, 2); // ENOENT is shared
    // A divergent errno: connect refusal is 111 on Linux, 61 Darwin.
    int fd = static_cast<int>(
        kernel_.trap(t, TrapClass::XnuBsd, xnu::xnuno::SOCKET,
                     kernel::makeArgs())
            .value);
    r = kernel_.trap(t, TrapClass::XnuBsd, xnu::xnuno::CONNECT,
                     kernel::makeArgs(static_cast<std::int64_t>(fd),
                                      std::string("/nowhere")));
    EXPECT_EQ(r.err, 61);
}

TEST_F(PersonaTest, NullSyscallOverheadsMatchPaper)
{
    const auto &profile = kernel_.profile();

    // Vanilla baseline: a separate kernel without Cider installed.
    kernel::Kernel vanilla(profile);
    kernel::Process &vproc = vanilla.createProcess("v");
    kernel::Thread &vt = vproc.mainThread();
    std::uint64_t base;
    {
        kernel::ThreadScope scope(vt);
        base = measureVirtual([&] {
            vanilla.trap(vt, TrapClass::LinuxSyscall,
                         kernel::sysno::NULL_SYSCALL,
                         kernel::makeArgs());
        });
    }

    std::uint64_t cider_android;
    {
        kernel::Thread &t = android_->mainThread();
        kernel::ThreadScope scope(t);
        cider_android = measureVirtual([&] {
            kernel_.trap(t, TrapClass::LinuxSyscall,
                         kernel::sysno::NULL_SYSCALL,
                         kernel::makeArgs());
        });
    }

    std::uint64_t cider_ios;
    {
        kernel::Thread &t = ios_->mainThread();
        kernel::ThreadScope scope(t);
        cider_ios = measureVirtual([&] {
            kernel_.trap(t, TrapClass::XnuBsd,
                         xnu::xnuno::NULL_SYSCALL, kernel::makeArgs());
        });
    }

    // Paper: +8.5% for persona checking, +40% for the iOS persona.
    double android_overhead =
        static_cast<double>(cider_android) / static_cast<double>(base);
    double ios_overhead =
        static_cast<double>(cider_ios) / static_cast<double>(base);
    EXPECT_NEAR(android_overhead, 1.085, 0.03);
    EXPECT_NEAR(ios_overhead, 1.40, 0.05);
}

TEST_F(PersonaTest, SignalToIosThreadTranslatedAndBiggerFrame)
{
    kernel::Thread &receiver = ios_->mainThread();
    int seen_signo = 0;
    std::size_t seen_frame = 0;
    kernel::SignalAction act;
    act.kind = kernel::SignalAction::Kind::Handler;
    act.fn = [&](int signo, const kernel::SigInfo &info) {
        seen_signo = signo;
        seen_frame = info.frameSize;
    };
    ios_->signals().action(kernel::lsig::USR1) = act;

    kernel::Thread &sender = android_->mainThread();
    kernel::ThreadScope scope(sender);
    // Android app signals the iOS app with the *Linux* number.
    kernel_.sysKill(sender, ios_->pid(), kernel::lsig::USR1);

    kernel::ThreadScope rcv_scope(receiver);
    kernel_.trap(receiver, TrapClass::XnuBsd, xnu::xnuno::NULL_SYSCALL,
                 kernel::makeArgs());

    // Delivered with Darwin numbering and the larger XNU frame.
    EXPECT_EQ(seen_signo, xnu::dsig::USR1);
    EXPECT_EQ(seen_frame, 760u);
}

TEST_F(PersonaTest, IosThreadCanSignalAndroidProcess)
{
    kernel::Thread &sender = ios_->mainThread();
    int seen = 0;
    kernel::SignalAction act;
    act.kind = kernel::SignalAction::Kind::Handler;
    act.fn = [&](int signo, const kernel::SigInfo &) { seen = signo; };
    android_->signals().action(kernel::lsig::USR2) = act;

    kernel::ThreadScope scope(sender);
    // iOS kill() passes the Darwin number (31 = SIGUSR2 on Darwin).
    SyscallResult r = kernel_.trap(
        sender, TrapClass::XnuBsd, xnu::xnuno::KILL,
        kernel::makeArgs(
            static_cast<std::int64_t>(android_->pid()),
            static_cast<std::int64_t>(xnu::dsig::USR2)));
    EXPECT_TRUE(r.ok());

    kernel::Thread &receiver = android_->mainThread();
    kernel::ThreadScope rcv_scope(receiver);
    kernel_.trap(receiver, TrapClass::LinuxSyscall,
                 kernel::sysno::NULL_SYSCALL, kernel::makeArgs());
    EXPECT_EQ(seen, kernel::lsig::USR2); // Linux numbering on receipt
}

TEST_F(PersonaTest, MultiplePersonasWithinOneProcess)
{
    // One process, two threads, different personas simultaneously —
    // the property the graphics path depends on (paper section 4.3).
    kernel::Thread &ios_thread = ios_->mainThread();
    kernel::Thread &gl_thread = ios_->createThread(Persona::Android);

    EXPECT_EQ(ios_thread.persona(), Persona::Ios);
    EXPECT_EQ(gl_thread.persona(), Persona::Android);

    kernel::ThreadScope scope(gl_thread);
    EXPECT_TRUE(kernel_
                    .trap(gl_thread, TrapClass::LinuxSyscall,
                          kernel::sysno::NULL_SYSCALL,
                          kernel::makeArgs())
                    .ok());
}

} // namespace
} // namespace cider::persona
