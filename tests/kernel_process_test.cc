/**
 * @file
 * Process lifecycle tests: fork cost attribution, exec, wait,
 * virtual-time merging, and address-space accounting.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "hw/device_profile.h"
#include "kernel/kernel.h"
#include "binfmt/binfmt_registry.h"

namespace cider::kernel {
namespace {

class ProcessTest : public ::testing::Test
{
  protected:
    ProcessTest() : kernel_(hw::DeviceProfile::nexus7())
    {
        proc_ = &kernel_.createProcess("parent");
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<ThreadScope>(*thread_);
    }

    Kernel kernel_;
    Process *proc_;
    Thread *thread_;
    std::unique_ptr<ThreadScope> scope_;
};

TEST_F(ProcessTest, ForkCopiesKernelStateAndRunsChild)
{
    kernel_.vfs().writeFile("/tmp/seen", {});
    Fd fd = static_cast<Fd>(
        kernel_.sysOpen(*thread_, "/tmp/seen", oflag::RDWR).value);

    bool child_ran = false;
    SyscallResult r = kernel_.sysFork(
        *thread_, [&child_ran, fd, this](Thread &child) {
            child_ran = true;
            // Child inherited the descriptor.
            Bytes data{9};
            EXPECT_EQ(kernel_.sysWrite(child, fd, data).value, 1);
            return 7;
        });
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(child_ran);

    int status = -1;
    EXPECT_TRUE(kernel_
                    .sysWaitpid(*thread_, static_cast<Pid>(r.value),
                                &status)
                    .ok());
    EXPECT_EQ(status, 7);
}

TEST_F(ProcessTest, ForkCostScalesWithPrivatePages)
{
    const auto &p = kernel_.profile();
    auto fork_cost = [&] {
        return measureVirtual([&] {
            SyscallResult r = kernel_.sysFork(
                *thread_, [](Thread &) { return 0; });
            int status;
            kernel_.sysWaitpid(*thread_, static_cast<Pid>(r.value),
                               &status);
        });
    };

    std::uint64_t small = fork_cost();
    proc_->mem().addMapping("big-lib", 10000);
    std::uint64_t big = fork_cost();
    EXPECT_GE(big - small, 10000 * p.pageCopyEntryNs);

    // Shared mappings (the dyld shared cache) are free to fork.
    proc_->mem().addMapping("shared-cache", 50000, /*shared=*/true);
    std::uint64_t with_shared = fork_cost();
    EXPECT_LT(with_shared, big + 1000);
}

TEST_F(ProcessTest, WaitpidMergesChildVirtualTime)
{
    SyscallResult r = kernel_.sysFork(*thread_, [](Thread &t) {
        t.clock().charge(1000000); // child does 1 ms of work
        return 0;
    });
    std::uint64_t before = thread_->clock().now();
    int status;
    kernel_.sysWaitpid(*thread_, static_cast<Pid>(r.value), &status);
    // The parent observed the child's lifetime.
    EXPECT_GE(thread_->clock().now(), before + 900000);
}

TEST_F(ProcessTest, WaitpidReapsTheChild)
{
    SyscallResult r = kernel_.sysFork(*thread_, [](Thread &) { return 4; });
    ASSERT_TRUE(r.ok());
    const auto pid = static_cast<Pid>(r.value);
    ASSERT_NE(kernel_.findProcess(pid), nullptr);
    std::size_t before = kernel_.processCount();
    int status = -1;
    ASSERT_TRUE(kernel_.sysWaitpid(*thread_, pid, &status).ok());
    EXPECT_EQ(status, 4);
    // The table entry, Process and address space went with the wait.
    EXPECT_EQ(kernel_.findProcess(pid), nullptr);
    EXPECT_EQ(kernel_.processCount(), before - 1);
    EXPECT_FALSE(kernel_.reapProcess(pid));
    EXPECT_EQ(kernel_.sysWaitpid(*thread_, pid, &status).err, lnx::CHILD);
}

TEST_F(ProcessTest, WaitpidForNonChildIsEchild)
{
    Process &other = kernel_.createProcess("stranger");
    int status;
    EXPECT_EQ(kernel_.sysWaitpid(*thread_, other.pid(), &status).err,
              lnx::CHILD);
}

TEST_F(ProcessTest, ExecveReplacesImage)
{
    // Install a trivial ELF the kernel can load.
    kernel::Kernel *k = &kernel_;
    static binfmt::ProgramRegistry registry;
    registry.add("exec.child", [](binfmt::UserEnv &) { return 21; });
    k->registerLoader(std::make_unique<binfmt::ElfLoader>(
        registry, binfmt::ElfBootstrap{}));

    binfmt::ElfBuilder builder(binfmt::ElfType::Exec);
    builder.entry("exec.child").segment(".text", 6);
    kernel_.vfs().writeFile("/system/bin/child", builder.build());

    SyscallResult r = kernel_.sysFork(*thread_, [k](Thread &child) {
        kernel::SyscallResult er =
            k->sysExecve(child, "/system/bin/child", {"child"});
        // On success execve never returns.
        EXPECT_TRUE(false) << "execve returned: " << er.err;
        return 1;
    });
    int status = -1;
    kernel_.sysWaitpid(*thread_, static_cast<Pid>(r.value), &status);
    EXPECT_EQ(status, 21);
}

TEST_F(ProcessTest, ExecveOfGarbageIsEnoexec)
{
    setLogQuiet(true);
    kernel_.vfs().writeFile("/tmp/garbage", {0xde, 0xad});
    SyscallResult r = kernel_.sysExecve(*thread_, "/tmp/garbage", {});
    EXPECT_EQ(r.err, lnx::NOEXEC);
    setLogQuiet(false);
}

TEST_F(ProcessTest, ExecveMissingFileIsEnoent)
{
    SyscallResult r = kernel_.sysExecve(*thread_, "/none", {});
    EXPECT_EQ(r.err, lnx::NOENT);
}

TEST_F(ProcessTest, ChildInheritsPersona)
{
    thread_->setPersona(Persona::Ios);
    SyscallResult r = kernel_.sysFork(*thread_, [](Thread &child) {
        EXPECT_EQ(child.persona(), Persona::Ios);
        return 0;
    });
    ASSERT_TRUE(r.ok());
    Process *child = kernel_.findProcess(static_cast<Pid>(r.value));
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->mainThread().persona(), Persona::Ios);
}

TEST_F(ProcessTest, ExtMapIsTypedAndSticky)
{
    struct Counter
    {
        int value = 0;
    };
    proc_->ext().get<Counter>("c").value = 41;
    EXPECT_EQ(proc_->ext().get<Counter>("c").value, 41);
    EXPECT_EQ(proc_->ext().find<Counter>("missing"), nullptr);
    proc_->ext().clear();
    EXPECT_EQ(proc_->ext().find<Counter>("c"), nullptr);
    EXPECT_EQ(proc_->ext().get<Counter>("c").value, 0);
}

TEST_F(ProcessTest, AddressSpaceAccounting)
{
    AddressSpace as;
    as.addMapping("a", 10);
    as.addMapping("b", 20, /*shared=*/true);
    EXPECT_EQ(as.pages(), 30u);
    EXPECT_EQ(as.privatePages(), 10u);
    EXPECT_TRUE(as.hasMapping("a"));
    as.reset();
    EXPECT_EQ(as.pages(), 0u);
}

} // namespace
} // namespace cider::kernel
