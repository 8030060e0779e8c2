/**
 * @file
 * Diplomatic function tests: the nine-step arbitration, persona
 * restoration, one trace record per persona switch, errno conversion
 * into the foreign TLS, first-call caching (once, across racing
 * threads), batching, and whole-library wrapping.
 */

#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <string>
#include <thread>

#include "base/logging.h"
#include "diplomat/diplomat.h"
#include "hw/device_profile.h"
#include "kernel/linux_syscalls.h"
#include "kernel/trap_stats.h"
#include "persona/persona.h"
#include "persona/tls.h"

namespace cider::diplomat {
namespace {

using kernel::Persona;

class DiplomatTest : public ::testing::Test
{
  protected:
    DiplomatTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        proc_ = &kernel_.createProcess("iapp", Persona::Ios);
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<kernel::ThreadScope>(*thread_);
        env_ = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{kernel_, *thread_, {}});

        // A domestic library with one export that observes the
        // persona it runs under.
        binfmt::LibraryImage lib;
        lib.name = "libdomestic.so";
        lib.exports.add(
            "observe",
            [this](binfmt::UserEnv &env,
                   std::vector<binfmt::Value> &args) {
                observedPersona_ = env.thread.persona();
                // A domestic function that fails with a Linux errno.
                persona::ThreadTls::of(env.thread)
                    .area(Persona::Android)
                    .setErrno(kernel::lnx::AGAIN);
                return binfmt::Value{binfmt::valueI64(args.at(0)) * 2};
            });
        libs_.add(std::move(lib));
    }

    kernel::Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    binfmt::LibraryRegistry libs_;
    kernel::Process *proc_;
    kernel::Thread *thread_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::unique_ptr<binfmt::UserEnv> env_;
    Persona observedPersona_ = Persona::Ios;
};

TEST_F(DiplomatTest, ArbitrationSwitchesAndRestoresPersona)
{
    DiplomaticLibrary dlib(libs_, "libdomestic.so");
    Diplomat *d = dlib.find("observe");
    ASSERT_NE(d, nullptr);

    ASSERT_EQ(thread_->persona(), Persona::Ios);
    std::vector<binfmt::Value> args{std::int64_t{21}};
    binfmt::Value rv = d->call(*env_, args);

    // Step 5 ran under the domestic persona...
    EXPECT_EQ(observedPersona_, Persona::Android);
    // ...steps 7/9 restored the caller and returned the value.
    EXPECT_EQ(thread_->persona(), Persona::Ios);
    EXPECT_EQ(binfmt::valueI64(rv), 42);
    // Two set_persona switches per call.
    EXPECT_EQ(mgr_.personaSwitches(), 2u);
    EXPECT_EQ(d->stats().calls, 1u);
}

TEST_F(DiplomatTest, EachPersonaSwitchLeavesOneTraceRecord)
{
    DiplomaticLibrary dlib(libs_, "libdomestic.so");
    Diplomat *d = dlib.find("observe");
    ASSERT_NE(d, nullptr);
    kernel::TrapStats &stats = kernel_.trapStats();
    const std::uint64_t before = stats.traceRecorded();

    // A call's two set_persona traps leave exactly two records, each
    // the switch itself with its trap's class, nr and latency.
    std::vector<binfmt::Value> args{std::int64_t{1}};
    d->call(*env_, args);
    ASSERT_EQ(stats.traceRecorded(), before + 2);
    std::vector<kernel::TraceRecord> trace = stats.trace();
    ASSERT_GE(trace.size(), 2u);
    const kernel::TraceRecord &in = trace[trace.size() - 2];
    const kernel::TraceRecord &out = trace.back();
    for (const kernel::TraceRecord *rec : {&in, &out}) {
        EXPECT_EQ(rec->kind, kernel::TraceRecord::Kind::PersonaSwitch);
        EXPECT_EQ(rec->nr, kernel::sysno::SET_PERSONA);
        EXPECT_EQ(rec->tid, thread_->tid());
        EXPECT_GT(rec->latencyNs, 0u);
    }
    EXPECT_EQ(in.cls, kernel::TrapClass::XnuBsd);
    EXPECT_EQ(in.persona, Persona::Ios);
    EXPECT_EQ(in.toPersona, Persona::Android);
    EXPECT_EQ(out.cls, kernel::TrapClass::LinuxSyscall);
    EXPECT_EQ(out.persona, Persona::Android);
    EXPECT_EQ(out.toPersona, Persona::Ios);

    // A direct switch is no trap; it still leaves its one record.
    mgr_.setPersona(*thread_, Persona::Android);
    ASSERT_EQ(stats.traceRecorded(), before + 3);
    const kernel::TraceRecord direct = stats.trace().back();
    EXPECT_EQ(direct.kind, kernel::TraceRecord::Kind::PersonaSwitch);
    EXPECT_EQ(direct.persona, Persona::Ios);
    EXPECT_EQ(direct.toPersona, Persona::Android);

    // One switch counter, read through both accessors.
    EXPECT_EQ(stats.personaSwitches(), 3u);
    EXPECT_EQ(mgr_.personaSwitches(), 3u);

    // The dump's switch lines carry their latency.
    std::istringstream dump(stats.dump());
    std::size_t switch_lines = 0;
    for (std::string line; std::getline(dump, line);) {
        if (line.find("set_persona") == std::string::npos)
            continue;
        ++switch_lines;
        EXPECT_NE(line.find(" lat="), std::string::npos) << line;
    }
    EXPECT_EQ(switch_lines, 3u);
}

TEST_F(DiplomatTest, ErrnoConvertedIntoForeignTls)
{
    DiplomaticLibrary dlib(libs_, "libdomestic.so");
    std::vector<binfmt::Value> args{std::int64_t{1}};
    dlib.find("observe")->call(*env_, args);

    // Step 8: Linux EAGAIN (11) appears as Darwin EAGAIN (35) in the
    // iOS TLS area.
    EXPECT_EQ(persona::ThreadTls::of(*thread_)
                  .area(Persona::Ios)
                  .errnoValue(),
              35);
}

TEST_F(DiplomatTest, FirstCallLoadsThenCaches)
{
    DiplomaticLibrary dlib(libs_, "libdomestic.so");
    Diplomat *d = dlib.find("observe");
    std::vector<binfmt::Value> args{std::int64_t{1}};

    std::uint64_t first =
        measureVirtual([&] { d->call(*env_, args); });
    std::uint64_t second =
        measureVirtual([&] { d->call(*env_, args); });
    // The dlopen+dlsym work happens once (step 1's cached static).
    EXPECT_GT(first, second + 10000);
}

TEST_F(DiplomatTest, MissingSymbolReturnsEmptyValueWithWarning)
{
    setLogQuiet(true);
    Diplomat d("ghost", [](binfmt::UserEnv &) -> const binfmt::Symbol * {
        return nullptr;
    });
    std::vector<binfmt::Value> args;
    binfmt::Value rv = d.call(*env_, args);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(rv));
    EXPECT_EQ(thread_->persona(), Persona::Ios); // unchanged
    setLogQuiet(false);
}

TEST_F(DiplomatTest, BatchingAmortisesPersonaSwitches)
{
    DiplomaticLibrary dlib(libs_, "libdomestic.so");
    Diplomat *d = dlib.find("observe");

    std::vector<binfmt::Value> args{std::int64_t{1}};
    d->call(*env_, args); // warm the cache
    std::uint64_t switches_before = mgr_.personaSwitches();

    std::vector<std::vector<binfmt::Value>> batch(
        50, std::vector<binfmt::Value>{std::int64_t{3}});
    binfmt::Value rv = d->callBatched(*env_, batch);
    EXPECT_EQ(binfmt::valueI64(rv), 6);
    // 50 domestic calls, one round trip.
    EXPECT_EQ(mgr_.personaSwitches(), switches_before + 2);
    EXPECT_EQ(d->stats().batchedCalls, 50u);
}

TEST_F(DiplomatTest, WholeLibraryWrappedWhenNoSymbolListGiven)
{
    binfmt::LibraryImage multi;
    multi.name = "libmulti.so";
    for (const char *sym : {"a", "b", "c"})
        multi.exports.add(sym,
                          [](binfmt::UserEnv &,
                             std::vector<binfmt::Value> &) {
                              return binfmt::Value{std::int64_t{1}};
                          });
    libs_.add(std::move(multi));

    DiplomaticLibrary dlib(libs_, "libmulti.so");
    EXPECT_EQ(dlib.size(), 3u);
    binfmt::SymbolTable exports = dlib.exports();
    EXPECT_NE(exports.find("a"), nullptr);
    EXPECT_NE(exports.find("c"), nullptr);

    std::vector<binfmt::Value> args;
    EXPECT_EQ(binfmt::valueI64(exports.find("b")->fn(*env_, args)), 1);
    EXPECT_EQ(dlib.totalCalls(), 1u);
}

TEST_F(DiplomatTest, RacingFirstCallersPayOneLoad)
{
    // Domestic functions that touch only their caller's state.
    binfmt::LibraryImage shared;
    shared.name = "libshared.so";
    for (const char *sym : {"warm", "twice"})
        shared.exports.add(sym, [](binfmt::UserEnv &,
                                   std::vector<binfmt::Value> &args) {
            return binfmt::Value{binfmt::valueI64(args.at(0)) * 2};
        });
    libs_.add(std::move(shared));
    DiplomaticLibrary dlib(libs_, "libshared.so");
    Diplomat *warm = dlib.find("warm");
    Diplomat *twice = dlib.find("twice");

    constexpr int kThreads = 4;
    constexpr int kCalls = 25;
    std::vector<kernel::Thread *> callers;
    for (int i = 0; i < kThreads; ++i)
        callers.push_back(&kernel_
                               .createProcess("racer." + std::to_string(i),
                                              Persona::Ios)
                               .mainThread());

    std::vector<std::uint64_t> racing(kThreads), steady(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i)
        workers.emplace_back([&, i] {
            kernel::ThreadScope scope(*callers[i]);
            binfmt::UserEnv env{kernel_, *callers[i], {}};
            std::vector<binfmt::Value> args{std::int64_t{i}};
            warm->call(env, args); // any per-thread first-call costs
            start.arrive_and_wait();
            racing[i] = measureVirtual([&] {
                for (int n = 0; n < kCalls; ++n)
                    twice->call(env, args);
            });
            steady[i] = measureVirtual([&] { twice->call(env, args); });
        });
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(twice->stats().calls, kThreads * (kCalls + 1u));
    EXPECT_EQ(warm->stats().calls, 1u * kThreads);
    // Everything the racing calls charged beyond steady-state calls is
    // one first load (24,000 cycles of dlopen + symbol search).
    std::uint64_t extra = 0;
    for (int i = 0; i < kThreads; ++i)
        extra += racing[i] - kCalls * steady[i];
    EXPECT_EQ(extra, kernel_.profile().cyclesToNs(24000));
}

} // namespace
} // namespace cider::diplomat
