/**
 * @file
 * User-level kqueue/kevent tests (API interposition over select).
 */

#include <gtest/gtest.h>

#include "hw/device_profile.h"
#include "ios/libsystem.h"
#include "persona/persona.h"
#include "xnu/kqueue.h"

namespace cider::xnu {
namespace {

class KQueueTest : public ::testing::Test
{
  protected:
    KQueueTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        proc_ = &kernel_.createProcess("kq", kernel::Persona::Ios);
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<kernel::ThreadScope>(*thread_);
        env_ = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{kernel_, *thread_, {}});
        libc_ = std::make_unique<ios::LibSystem>(*env_);
    }

    kernel::Kernel kernel_;
    MachIpc ipc_;
    PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    kernel::Process *proc_;
    kernel::Thread *thread_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::unique_ptr<binfmt::UserEnv> env_;
    std::unique_ptr<ios::LibSystem> libc_;
};

TEST_F(KQueueTest, ReadFilterTriggersWhenDataArrives)
{
    int fds[2];
    ASSERT_EQ(libc_->pipe(fds), 0);

    KQueue kq(kernel_, *thread_);
    std::vector<KEvent> changes{{fds[0], EVFILT_READ, true}};
    std::vector<KEvent> out;
    EXPECT_EQ(kq.kevent(changes, out), 0); // nothing readable yet
    EXPECT_EQ(kq.registrationCount(), 1u);

    Bytes b{1};
    libc_->write(fds[1], b);
    out.clear();
    EXPECT_EQ(kq.kevent({}, out), 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].ident, fds[0]);
    EXPECT_EQ(out[0].filter, EVFILT_READ);
}

TEST_F(KQueueTest, WriteFilterAndDeletion)
{
    int fds[2];
    ASSERT_EQ(libc_->pipe(fds), 0);
    KQueue kq(kernel_, *thread_);
    std::vector<KEvent> out;
    EXPECT_EQ(kq.kevent({{fds[1], EVFILT_WRITE, true}}, out), 1);

    out.clear();
    EXPECT_EQ(kq.kevent({{fds[1], EVFILT_WRITE, false}}, out), 0);
    EXPECT_EQ(kq.registrationCount(), 0u);
}

TEST_F(KQueueTest, MixedFiltersReportIndependently)
{
    int a[2], b[2];
    ASSERT_EQ(libc_->pipe(a), 0);
    ASSERT_EQ(libc_->pipe(b), 0);
    KQueue kq(kernel_, *thread_);
    std::vector<KEvent> out;
    kq.kevent({{a[0], EVFILT_READ, true}, {b[1], EVFILT_WRITE, true}},
              out);

    Bytes data{1};
    libc_->write(a[1], data);
    out.clear();
    EXPECT_EQ(kq.kevent({}, out), 2); // a readable, b writable
}

} // namespace
} // namespace cider::xnu
