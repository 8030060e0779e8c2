/**
 * @file
 * launchd / bootstrap-server / service tests: name registration and
 * lookup over real Mach IPC, configd key-value RPC, notifyd fan-out,
 * and lookups of unregistered names.
 */

#include <gtest/gtest.h>

#include "core/cider_system.h"
#include "ios/libsystem.h"
#include "ios/services.h"

namespace cider {
namespace {

using core::CiderSystem;
using core::SystemConfig;
using core::SystemOptions;

class LaunchdFixture : public ::testing::Test
{
  protected:
    LaunchdFixture()
    {
        SystemOptions opts;
        opts.config = SystemConfig::CiderIos;
        opts.startServices = true;
        sys_ = std::make_unique<CiderSystem>(opts);
    }

    std::unique_ptr<CiderSystem> sys_;
};

TEST_F(LaunchdFixture, ServicesRegisteredAtBoot)
{
    ASSERT_NE(sys_->launchd(), nullptr);
    EXPECT_TRUE(sys_->launchd()->running());
    std::vector<std::string> names = sys_->launchd()->registeredNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], ios::configmsg::kServiceName);
    EXPECT_EQ(names[1], ios::notifymsg::kServiceName);
}

TEST_F(LaunchdFixture, RegisterAndLookupCustomService)
{
    int rc = sys_->runInProcess(
        "mediaserverd", kernel::Persona::Ios,
        [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            xnu::mach_port_name_t port =
                libc.machPortAllocate(xnu::PortRight::Receive);
            if (!ios::Launchd::registerService(
                    libc, "com.apple.mediaserverd", port))
                return 1;
            // Look our own service back up: a distinct send right.
            xnu::mach_port_name_t found = ios::Launchd::lookupService(
                libc, "com.apple.mediaserverd");
            if (found == xnu::MACH_PORT_NULL)
                return 2;
            // Prove it reaches the same receive right.
            xnu::MachMessage ping;
            ping.header.remotePort = found;
            ping.header.remoteDisposition =
                xnu::MsgDisposition::CopySend;
            ping.header.msgId = 777;
            if (libc.machMsgSend(ping) != xnu::KERN_SUCCESS)
                return 3;
            xnu::MachMessage out;
            if (libc.machMsgReceive(port, out) != xnu::KERN_SUCCESS)
                return 4;
            return out.header.msgId == 777 ? 0 : 5;
        });
    EXPECT_EQ(rc, 0);
}

TEST_F(LaunchdFixture, LookupOfUnknownNameIsNull)
{
    int rc = sys_->runInProcess(
        "client", kernel::Persona::Ios, [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            return ios::Launchd::lookupService(libc, "com.ghost") ==
                           xnu::MACH_PORT_NULL
                       ? 0
                       : 1;
        });
    EXPECT_EQ(rc, 0);
}

TEST_F(LaunchdFixture, ConfigdStoresAcrossClients)
{
    int rc1 = sys_->runInProcess(
        "writer", kernel::Persona::Ios, [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            return ios::configSet(libc, "hw.model", "Nexus7-Cider")
                       ? 0
                       : 1;
        });
    ASSERT_EQ(rc1, 0);
    int rc2 = sys_->runInProcess(
        "reader", kernel::Persona::Ios, [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            if (ios::configGet(libc, "hw.model") != "Nexus7-Cider")
                return 1;
            if (!ios::configGet(libc, "never.set").empty())
                return 2;
            return 0;
        });
    EXPECT_EQ(rc2, 0);
}

TEST_F(LaunchdFixture, NotifydFanOutToMultipleSubscribers)
{
    int rc = sys_->runInProcess(
        "subscribers", kernel::Persona::Ios,
        [](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            xnu::mach_port_name_t p1 =
                libc.machPortAllocate(xnu::PortRight::Receive);
            xnu::mach_port_name_t p2 =
                libc.machPortAllocate(xnu::PortRight::Receive);
            if (!ios::notifyRegister(libc, "com.test.bcast", p1))
                return 1;
            if (!ios::notifyRegister(libc, "com.test.bcast", p2))
                return 2;
            if (!ios::notifyPost(libc, "com.test.bcast"))
                return 3;
            xnu::MachMessage m1, m2;
            if (libc.machMsgReceive(p1, m1) != xnu::KERN_SUCCESS)
                return 4;
            if (libc.machMsgReceive(p2, m2) != xnu::KERN_SUCCESS)
                return 5;
            if (m1.header.msgId != ios::notifymsg::Event)
                return 6;
            return 0;
        });
    EXPECT_EQ(rc, 0);
}

TEST_F(LaunchdFixture, ForkedChildInheritsBootstrapAccess)
{
    int rc = sys_->runInProcess(
        "parent", kernel::Persona::Ios, [&](binfmt::UserEnv &env) {
            ios::LibSystem libc(env);
            int child_result = -1;
            int pid = libc.fork([&](kernel::Thread &child) -> int {
                binfmt::UserEnv cenv{env.kernel, child, {}};
                ios::LibSystem clibc(cenv);
                // The fork hook grafted the bootstrap port in.
                if (clibc.bootstrapPort() == xnu::MACH_PORT_NULL)
                    return 1;
                return ios::configSet(clibc, "from.child", "yes") ? 0
                                                                  : 2;
            });
            int status = -1;
            libc.waitpid(pid, &status);
            child_result = status;
            if (child_result != 0)
                return child_result;
            return ios::configGet(libc, "from.child") == "yes" ? 0 : 9;
        });
    EXPECT_EQ(rc, 0);
}

} // namespace
} // namespace cider
