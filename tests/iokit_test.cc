/**
 * @file
 * I/O Kit tests: OSObject refcounting, registry attach/detach and
 * matching, Linux-device bridging, driver-class matching
 * (AppleM2CLCD against the bridged framebuffer node), and
 * external-method user clients.
 */

#include <gtest/gtest.h>

#include "ducttape/cxx_runtime.h"
#include "gpu/sim_gpu.h"
#include "hw/device_profile.h"
#include "iokit/block_storage.h"
#include "iokit/framebuffer.h"
#include "iokit/io_registry.h"
#include "iokit/io_service.h"
#include "iokit/io_surface.h"
#include "iokit/linux_bridge.h"
#include "iokit/network.h"
#include "iokit/stub_families.h"
#include "kernel/fault_rail.h"
#include "kernel/kernel.h"

namespace cider::iokit {
namespace {

TEST(OSObject, RetainReleaseTracksHeap)
{
    ducttape::KernelCxxRuntime rt;
    auto *entry = new IORegistryEntry(rt, "obj");
    EXPECT_EQ(rt.stats().liveObjects, 1u);
    entry->retain();
    EXPECT_EQ(entry->refCount(), 2);
    entry->release();
    EXPECT_EQ(rt.stats().liveObjects, 1u);
    entry->release();
    EXPECT_EQ(rt.stats().liveObjects, 0u);
    EXPECT_EQ(rt.stats().objectsDestroyed, 1u);
}

TEST(IORegistry, AttachFindDetach)
{
    ducttape::KernelCxxRuntime rt;
    IORegistry registry(rt);
    auto *parent = new IORegistryEntry(rt, "bus");
    registry.attach(parent);
    auto *child = new IORegistryEntry(rt, "disk");
    child->setProperty("size", std::int64_t{16});
    registry.attach(child, parent);

    EXPECT_EQ(registry.findByName("disk"), child);
    EXPECT_EQ(registry.findById(child->entryId()), child);
    EXPECT_EQ(child->parent(), parent);
    EXPECT_EQ(registry.entryCount(), 3u); // root + 2

    OSDictionary match;
    match["size"] = std::int64_t{16};
    EXPECT_EQ(registry.matchAll(match).size(), 1u);

    registry.detach(parent); // takes the subtree with it
    EXPECT_EQ(registry.findByName("disk"), nullptr);
    EXPECT_EQ(registry.entryCount(), 1u);
}

TEST(IORegistry, DictMatching)
{
    OSDictionary props;
    props["class"] = std::string("framebuffer");
    props["width"] = std::int64_t{1280};
    OSDictionary match;
    EXPECT_TRUE(osDictMatches(props, match)); // empty matches all
    match["class"] = std::string("framebuffer");
    EXPECT_TRUE(osDictMatches(props, match));
    match["width"] = std::int64_t{1024};
    EXPECT_FALSE(osDictMatches(props, match));
}

class IoKitFixture : public ::testing::Test
{
  protected:
    IoKitFixture()
        : kernel_(hw::DeviceProfile::nexus7()), gpu_(kernel_.profile()),
          registry_(rt_), catalogue_(registry_)
    {
        installLinuxBridge(kernel_.devices(), registry_);
    }

    kernel::Kernel kernel_;
    gpu::SimGpu gpu_;
    ducttape::KernelCxxRuntime rt_;
    IORegistry registry_;
    IOCatalogue catalogue_;
};

TEST_F(IoKitFixture, LinuxDevicesBridgedIntoRegistry)
{
    auto dev = std::make_unique<kernel::Device>("gps0", "gps");
    dev->setProperty("vendor", "ublox");
    kernel_.devices().add(std::move(dev));

    IORegistryEntry *entry = registry_.findByName("gps0");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(osValueString(entry->property(kLinuxClassKey)), "gps");
    EXPECT_EQ(osValueString(entry->property("vendor")), "ublox");
    EXPECT_NE(linuxDeviceOf(*entry), nullptr);
}

TEST_F(IoKitFixture, BridgeReplaysPreexistingDevices)
{
    kernel::Kernel other(hw::DeviceProfile::nexus7());
    other.devices().add(
        std::make_unique<kernel::Device>("early", "sensor"));
    IORegistry late(rt_);
    installLinuxBridge(other.devices(), late);
    EXPECT_NE(late.findByName("early"), nullptr);
}

TEST_F(IoKitFixture, AppleM2CLCDMatchesFramebufferNode)
{
    AppleM2CLCD::registerDriver(rt_, catalogue_);
    rt_.bootConstructors();

    // No framebuffer yet: no service.
    EXPECT_EQ(catalogue_.findService("AppleM2CLCD"), nullptr);

    kernel_.devices().add(
        std::make_unique<gpu::FramebufferDevice>(gpu_, 1280, 800));

    IOService *service = catalogue_.findService("AppleM2CLCD");
    ASSERT_NE(service, nullptr);
    EXPECT_TRUE(service->started());
    ASSERT_NE(service->provider(), nullptr);
    EXPECT_EQ(service->provider()->entryName(), "fb0");

    // Drive it through the user-client interface.
    kernel::Process &proc = kernel_.createProcess("caller");
    kernel::ThreadScope scope(proc.mainThread());
    std::vector<std::int64_t> output;
    ASSERT_EQ(service->externalMethod(fbsel::GetDisplayInfo, {},
                                      output),
              xnu::KERN_SUCCESS);
    ASSERT_EQ(output.size(), 2u);
    EXPECT_EQ(output[0], 1280);
    EXPECT_EQ(output[1], 800);
}

TEST_F(IoKitFixture, AppleM2CLCDPresentsThroughLinuxDriver)
{
    AppleM2CLCD::registerDriver(rt_, catalogue_);
    rt_.bootConstructors();
    auto fb = std::make_unique<gpu::FramebufferDevice>(gpu_, 64, 64);
    gpu::FramebufferDevice *fb_raw = fb.get();
    kernel_.devices().add(std::move(fb));
    IOService *service = catalogue_.findService("AppleM2CLCD");
    ASSERT_NE(service, nullptr);

    gpu::BufferPtr buf = gpu_.buffers().create(64, 64);
    std::span<std::uint32_t> px = buf->mutablePixels();
    std::fill(px.begin(), px.end(), 0xff00ff00u);

    kernel::Process &proc = kernel_.createProcess("caller");
    kernel::ThreadScope scope(proc.mainThread());
    std::vector<std::int64_t> output;
    ASSERT_EQ(service->externalMethod(
                  fbsel::SwapEnd,
                  {static_cast<std::int64_t>(buf->id)}, output),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(fb_raw->presentCount(), 1u);
    EXPECT_EQ(fb_raw->frontBuffer().pixels[0], 0xff00ff00u);

    output.clear();
    service->externalMethod(fbsel::GetSwapCount, {}, output);
    ASSERT_EQ(output.size(), 1u);
    EXPECT_EQ(output[0], 1);
}

TEST_F(IoKitFixture, IOSurfaceRootUserClient)
{
    ducttape::KernelCxxRuntime rt;
    IOSurfaceRoot surface_root(rt, gpu_.buffers());

    std::vector<std::int64_t> output;
    ASSERT_EQ(surface_root.externalMethod(surfsel::Create, {320, 480},
                                          output),
              xnu::KERN_SUCCESS);
    ASSERT_EQ(output.size(), 1u);
    std::int64_t id = output[0];
    EXPECT_GT(id, 0);

    output.clear();
    ASSERT_EQ(surface_root.externalMethod(surfsel::GetInfo, {id},
                                          output),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(output[0], 320);
    EXPECT_EQ(output[1], 480);

    output.clear();
    EXPECT_EQ(surface_root.externalMethod(surfsel::Release, {id},
                                          output),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(surface_root.externalMethod(surfsel::Release, {id},
                                          output),
              xnu::KERN_INVALID_NAME);
    EXPECT_EQ(surface_root.externalMethod(surfsel::Create, {},
                                          output),
              xnu::KERN_INVALID_ARGUMENT);
}

TEST_F(IoKitFixture, UnknownSelectorFails)
{
    ducttape::KernelCxxRuntime rt;
    IOSurfaceRoot surface_root(rt, gpu_.buffers());
    std::vector<std::int64_t> output;
    EXPECT_EQ(surface_root.externalMethod(999, {}, output),
              xnu::KERN_FAILURE);
}

// ---------------------------------------------------------------------------
// Personality matching: probe scores, categories, fall-through, and
// the terminate/rematch lifecycle.

/** A driver whose probe/start results are scripted by the test; every
 *  probe records the driver name so the order is observable. */
class ScriptedDriver : public IOService
{
  public:
    ScriptedDriver(ducttape::KernelCxxRuntime &rt, std::string name,
                   bool probe_ok, bool start_ok,
                   std::vector<std::string> *log)
        : IOService(rt, std::move(name)), probeOk_(probe_ok),
          startOk_(start_ok), log_(log)
    {}

    bool
    probe(IORegistryEntry &) override
    {
        if (log_)
            log_->push_back(entryName());
        return probeOk_;
    }

    bool
    start(IORegistryEntry &provider) override
    {
        return startOk_ && IOService::start(provider);
    }

  private:
    bool probeOk_;
    bool startOk_;
    std::vector<std::string> *log_;
};

class PersonalityFixture : public IoKitFixture
{
  protected:
    void
    addPersonality(const std::string &name, std::int32_t score,
                   const std::string &category, bool probe_ok,
                   bool start_ok)
    {
        IOCatalogue::IOPersonality p;
        p.className = name;
        p.match[kLinuxClassKey] = std::string("widget");
        p.probeScore = score;
        p.matchCategory = category;
        std::vector<std::string> *log = &probeLog_;
        p.factory = [name, probe_ok, start_ok,
                     log](ducttape::KernelCxxRuntime &rt) -> IOService * {
            return new ScriptedDriver(rt, name, probe_ok, start_ok, log);
        };
        catalogue_.addPersonality(std::move(p));
    }

    void
    addWidget()
    {
        kernel_.devices().add(
            std::make_unique<kernel::Device>("widget0", "widget"));
    }

    const IOCatalogue::IOPersonality *
    personality(const std::string &name) const
    {
        for (const auto &p : catalogue_.personalities())
            if (p.className == name)
                return &p;
        return nullptr;
    }

    std::vector<std::string> probeLog_;
};

TEST_F(PersonalityFixture, CandidatesProbeInDescendingScoreOrder)
{
    addPersonality("low", 10, "w", false, true);
    addPersonality("high", 100, "w", false, true);
    addPersonality("mid", 50, "w", false, true);
    addWidget();

    ASSERT_EQ(probeLog_.size(), 3u);
    EXPECT_EQ(probeLog_[0], "high");
    EXPECT_EQ(probeLog_[1], "mid");
    EXPECT_EQ(probeLog_[2], "low");
    EXPECT_EQ(catalogue_.services().size(), 0u);
    EXPECT_EQ(personality("high")->probeFailures, 1u);
    EXPECT_EQ(personality("low")->probeFailures, 1u);
}

TEST_F(PersonalityFixture, HighestScoreWinsItsCategory)
{
    addPersonality("challenger", 50, "w", true, true);
    addPersonality("champion", 100, "w", true, true);
    addWidget();

    // The winner closes the category: the challenger never probes.
    ASSERT_EQ(probeLog_, std::vector<std::string>{"champion"});
    IOService *svc = catalogue_.findService("champion");
    ASSERT_NE(svc, nullptr);
    EXPECT_EQ(svc->probeScore(), 100);
    EXPECT_EQ(svc->matchCategory(), "w");
    EXPECT_EQ(personality("champion")->wins, 1u);
    EXPECT_EQ(personality("challenger")->probes, 0u);
}

TEST_F(PersonalityFixture, FailedProbeFallsThroughToNextCandidate)
{
    addPersonality("flaky", 100, "w", false, true);
    addPersonality("solid", 50, "w", true, true);
    addWidget();

    EXPECT_EQ(probeLog_,
              (std::vector<std::string>{"flaky", "solid"}));
    EXPECT_EQ(catalogue_.findService("flaky"), nullptr);
    IOService *svc = catalogue_.findService("solid");
    ASSERT_NE(svc, nullptr);
    EXPECT_EQ(svc->probeScore(), 50);
    // The failed candidate left no registry debris.
    EXPECT_EQ(registry_.findByName("flaky"), nullptr);
    EXPECT_EQ(personality("flaky")->probeFailures, 1u);
    EXPECT_EQ(personality("solid")->wins, 1u);
}

TEST_F(PersonalityFixture, FailedStartFallsThroughAndDetaches)
{
    addPersonality("stillborn", 100, "w", true, false);
    addPersonality("backup", 50, "w", true, true);
    addWidget();

    EXPECT_EQ(registry_.findByName("stillborn"), nullptr);
    ASSERT_NE(catalogue_.findService("backup"), nullptr);
    EXPECT_EQ(personality("stillborn")->startFailures, 1u);
    EXPECT_EQ(personality("backup")->wins, 1u);
}

TEST_F(PersonalityFixture, DistinctCategoriesAttachIndependently)
{
    addPersonality("driverA", 100, "catA", true, true);
    addPersonality("driverB", 10, "catB", true, true);
    addWidget();

    EXPECT_NE(catalogue_.findService("driverA"), nullptr);
    EXPECT_NE(catalogue_.findService("driverB"), nullptr);
    IORegistryEntry *provider = registry_.findByName("widget0");
    ASSERT_NE(provider, nullptr);
    EXPECT_EQ(provider->children().size(), 2u);
}

TEST_F(PersonalityFixture, TerminateUnwindsRegistryAndRematchRecovers)
{
    addPersonality("primary", 100, "w", true, true);
    addPersonality("fallback", 50, "w", true, true);
    addWidget();

    IOService *svc = catalogue_.findService("primary");
    ASSERT_NE(svc, nullptr);
    IORegistryEntry *provider = registry_.findByName("widget0");
    ASSERT_NE(provider, nullptr);
    EXPECT_EQ(provider->children().size(), 1u);
    std::size_t entries = registry_.entryCount();

    // Terminate: stop + detach + release. No automatic re-match.
    EXPECT_TRUE(catalogue_.terminate(svc));
    EXPECT_EQ(catalogue_.findService("primary"), nullptr);
    EXPECT_EQ(catalogue_.services().size(), 0u);
    EXPECT_EQ(provider->children().size(), 0u);
    EXPECT_EQ(registry_.entryCount(), entries - 1);

    // Terminating a foreign pointer is refused.
    ducttape::KernelCxxRuntime other;
    auto *stranger = new ScriptedDriver(other, "x", true, true, nullptr);
    EXPECT_FALSE(catalogue_.terminate(stranger));
    stranger->release();

    // Explicit rematch lets the highest-score personality win again.
    catalogue_.rematch(*provider);
    IOService *again = catalogue_.findService("primary");
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->probeScore(), 100);
    EXPECT_EQ(provider->children().size(), 1u);
}

// ---------------------------------------------------------------------------
// Concrete families: NIC + fabric, block storage, audio/accel stubs.

class FamilyFixture : public ::testing::Test
{
  protected:
    FamilyFixture()
        : kernel_(hw::DeviceProfile::nexus7()), registry_(rt_),
          catalogue_(registry_)
    {
        kernel::FaultRail::global().disarmAll();
        installLinuxBridge(kernel_.devices(), registry_);
        IONetworkController::registerDriver(rt_, catalogue_, registry_,
                                            kernel_.net(), fabric_);
        IOBlockStorageDriver::registerDriver(rt_, catalogue_,
                                             kernel_.profile());
        IOHDACodec::registerDriver(rt_, catalogue_);
        IOAccelerator::registerDriver(rt_, catalogue_);
        rt_.bootConstructors();
    }

    ~FamilyFixture() override
    {
        kernel::FaultRail::global().disarmAll();
    }

    void
    addNic(const std::string &name, const std::string &addr,
           const std::string &depth = "4")
    {
        auto dev = std::make_unique<kernel::Device>(name, "network");
        dev->setProperty("address", addr);
        dev->setProperty("tx-depth", depth);
        kernel_.devices().add(std::move(dev));
    }

    IONetworkController *
    controller(const std::string &linux_name)
    {
        for (IOService *svc : catalogue_.services())
            if (auto *c = dynamic_cast<IONetworkController *>(svc);
                c && c->linuxName() == linux_name)
                return c;
        return nullptr;
    }

    kernel::Kernel kernel_;
    ducttape::KernelCxxRuntime rt_;
    IORegistry registry_;
    IOCatalogue catalogue_;
    NetFabric fabric_;
};

TEST_F(FamilyFixture, NetworkControllerBringsUpInterface)
{
    addNic("eth0", "1");
    IONetworkController *ctrl = controller("eth0");
    ASSERT_NE(ctrl, nullptr);
    EXPECT_TRUE(ctrl->started());
    EXPECT_EQ(ctrl->address(), 1u);
    EXPECT_EQ(ctrl->probeScore(), 1000);
    EXPECT_EQ(ctrl->matchCategory(), "net");

    // The interface is a registry child and the stack's NetDevice.
    ASSERT_NE(ctrl->interface(), nullptr);
    EXPECT_EQ(ctrl->interface()->parent(), ctrl);
    ASSERT_EQ(kernel_.net().devices().size(), 1u);
    EXPECT_EQ(kernel_.net().devices()[0]->ifName(), "eth0");
    EXPECT_EQ(kernel_.net().defaultAddr(), 1u);
    EXPECT_EQ(fabric_.linkCount(), 1u);

    std::vector<std::int64_t> out;
    EXPECT_EQ(ctrl->externalMethod(nicsel::GetAddress, {}, out),
              xnu::KERN_SUCCESS);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 1);
}

TEST_F(FamilyFixture, NicWithoutAddressFailsProbe)
{
    kernel_.devices().add(
        std::make_unique<kernel::Device>("eth_bad", "network"));
    EXPECT_EQ(controller("eth_bad"), nullptr);
    for (const auto &p : catalogue_.personalities()) {
        if (p.className == "IONetworkController") {
            EXPECT_EQ(p.probeFailures, 1u);
        }
    }
}

TEST_F(FamilyFixture, LinkDownRingBuffersThenFlushes)
{
    addNic("eth0", "1", "4");
    addNic("eth1", "2", "4");
    IONetworkController *c0 = controller("eth0");
    IONetworkController *c1 = controller("eth1");
    ASSERT_NE(c0, nullptr);
    ASSERT_NE(c1, nullptr);

    kernel::NetFrame f;
    f.proto = kernel::NetProto::Dgram;
    f.srcAddr = 1;
    f.dstAddr = 2;
    f.dstPort = 9; // no bound socket: the stack drops it after rx

    std::vector<std::int64_t> out;
    ASSERT_EQ(c0->externalMethod(nicsel::SetLink, {0}, out),
              xnu::KERN_SUCCESS);
    for (int i = 0; i < 5; ++i)
        c0->interface()->transmit(f);
    EXPECT_EQ(c1->stats().rxFrames, 0u);
    EXPECT_EQ(c0->stats().ringDrops, 1u); // depth 4, fifth dropped

    c0->setLink(true); // flush through the normal TX path
    EXPECT_EQ(c1->stats().rxFrames, 4u);
    EXPECT_EQ(c0->stats().txFrames, 4u);
    EXPECT_NE(c0->statsLine().find("eth0"), std::string::npos);
}

TEST_F(FamilyFixture, FaultSitesDropDuplicateAndReorder)
{
    addNic("eth0", "1");
    addNic("eth1", "2");
    IONetworkController *c0 = controller("eth0");
    IONetworkController *c1 = controller("eth1");
    ASSERT_NE(c0, nullptr);
    ASSERT_NE(c1, nullptr);

    // A bound datagram socket observes what actually arrives.
    kernel::Process &proc = kernel_.createProcess("rx");
    kernel::Thread &t = proc.mainThread();
    kernel::ThreadScope scope(t);
    auto sock = kernel_.net().socket(kernel::NetProto::Dgram);
    sock->setNonblocking(true);
    ASSERT_TRUE(sock->bind(2, 9).ok());

    auto send = [&](std::uint8_t tag) {
        kernel::NetFrame f;
        f.proto = kernel::NetProto::Dgram;
        f.srcAddr = 1;
        f.dstAddr = 2;
        f.srcPort = 8;
        f.dstPort = 9;
        f.payload = Bytes{tag};
        c0->interface()->transmit(f);
    };
    auto recvTags = [&] {
        std::vector<int> tags;
        for (;;) {
            Bytes pkt;
            kernel::NetAddr a = 0;
            kernel::NetPort p = 0;
            if (!sock->recvFrom(t, pkt, 8, &a, &p).ok())
                break;
            tags.push_back(pkt.size() == 1 ? pkt[0] : -1);
        }
        return tags;
    };

    kernel::FaultRail &rail = kernel::FaultRail::global();

    rail.armNth("nic.drop", 1);
    send(1);
    EXPECT_EQ(c0->stats().faultDrops, 1u);
    EXPECT_TRUE(recvTags().empty());

    rail.disarmAll();
    rail.armNth("nic.dup", 1);
    send(2);
    EXPECT_EQ(c0->stats().dupFrames, 1u);
    EXPECT_EQ(recvTags(), (std::vector<int>{2, 2}));

    rail.disarmAll();
    rail.armNth("nic.reorder", 1);
    send(3); // held
    EXPECT_TRUE(recvTags().empty());
    send(4); // rides first, then releases the held frame
    EXPECT_EQ(recvTags(), (std::vector<int>{4, 3}));
    EXPECT_EQ(c0->stats().heldFrames, 1u);

    rail.disarmAll();
    sock->closed();
}

TEST_F(FamilyFixture, BlockStorageQueuesAndDrainsAtDepth)
{
    auto dev = std::make_unique<kernel::Device>("flash0", "block");
    dev->setProperty("queue-depth", "4");
    kernel_.devices().add(std::move(dev));

    auto *blk = dynamic_cast<IOBlockStorageDriver *>(
        catalogue_.findService("IOBlockStorageDriver"));
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->queueDepth(), 4u);

    std::vector<std::int64_t> out;
    for (std::int64_t i = 0; i < 3; ++i)
        ASSERT_EQ(blk->externalMethod(blksel::Write, {i, i * 10}, out),
                  xnu::KERN_SUCCESS);
    EXPECT_EQ(blk->pending(), 3u);
    EXPECT_EQ(blk->completed(), 0u);

    // The fourth request fills the queue and drains it.
    ASSERT_EQ(blk->externalMethod(blksel::Write, {3, 30}, out),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(blk->pending(), 0u);
    EXPECT_EQ(blk->completed(), 4u);

    // Reads see queued writes (drain-before-read).
    ASSERT_EQ(blk->externalMethod(blksel::Write, {7, 77}, out),
              xnu::KERN_SUCCESS);
    out.clear();
    ASSERT_EQ(blk->externalMethod(blksel::Read, {7}, out),
              xnu::KERN_SUCCESS);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 77);

    // Flush drains explicitly; blk.io faults turn into I/O errors.
    kernel::FaultRail::global().armNth("blk.io", 1);
    ASSERT_EQ(blk->externalMethod(blksel::Write, {8, 88}, out),
              xnu::KERN_SUCCESS);
    out.clear();
    ASSERT_EQ(blk->externalMethod(blksel::Flush, {}, out),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(blk->ioErrors(), 1u);
    kernel::FaultRail::global().disarmAll();
}

TEST_F(FamilyFixture, StubFamiliesAnswerTheirSelectors)
{
    kernel_.devices().add(
        std::make_unique<kernel::Device>("hda0", "audio"));
    kernel_.devices().add(
        std::make_unique<kernel::Device>("gpu0", "gpu"));

    IOService *hda = catalogue_.findService("IOHDACodec");
    ASSERT_NE(hda, nullptr);
    std::vector<std::int64_t> out;
    ASSERT_EQ(hda->externalMethod(hdasel::GetSampleRate, {}, out),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(out[0], 44100);

    IOService *accel = catalogue_.findService("IOAccelerator");
    ASSERT_NE(accel, nullptr);
    EXPECT_EQ(accel->matchCategory(), "accel");
    out.clear();
    ASSERT_EQ(accel->externalMethod(accelsel::GetDeviceUnits, {}, out),
              xnu::KERN_SUCCESS);
    EXPECT_EQ(out[0], 4);
}

TEST_F(FamilyFixture, IoKitProcNodeReportsTreeAndPersonalities)
{
    addNic("eth0", "1");
    std::string text = dumpIoKit(registry_, catalogue_);
    EXPECT_NE(text.find("IONetworkController"), std::string::npos);
    EXPECT_NE(text.find("IONetworkInterface"), std::string::npos);
    EXPECT_NE(text.find("score=1000"), std::string::npos);
    EXPECT_NE(text.find("wins=1"), std::string::npos);
    EXPECT_NE(text.find("personalities"), std::string::npos);
}

} // namespace
} // namespace cider::iokit
