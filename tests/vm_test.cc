/**
 * @file
 * CiderVM tests: VmObject/VmMap units, COW fork cost and isolation,
 * the system-wide shared region, OOL snapshot dispositions (the
 * deallocate=false regression), Mach body auto-promotion, the VM
 * traps, /proc/cider/vm, a SchedRail scenario interleaving a writer
 * against an in-flight OOL copyin, interned entry names, and a pinned
 * end-to-end sequence over image mappings.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/cost_clock.h"
#include "core/cider_system.h"
#include "hw/device_profile.h"
#include "ios/libsystem.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/sched_rail.h"
#include "kernel/vm.h"
#include "persona/persona.h"
#include "xnu/mach_ipc.h"
#include "xnu/mach_traps.h"
#include "xnu/psynch.h"

namespace cider::kernel {
namespace {

// ---------------------------------------------------------------------------
// VmObject

TEST(VmObjectTest, ReadZeroFillsPastEstablishedContent)
{
    VmObject obj;
    obj.pages = 2;
    obj.data = Bytes{1, 2, 3};
    Bytes out;
    obj.readAt(1, 4, &out);
    EXPECT_EQ(out, (Bytes{2, 3, 0, 0}));
    obj.readAt(kVmPageBytes, 3, &out); // wholly past content
    EXPECT_EQ(out, (Bytes{0, 0, 0}));
}

TEST(VmObjectTest, WriteExtendsDataAndResidency)
{
    VmObject obj;
    obj.pages = 4;
    EXPECT_EQ(obj.resident, 0u);
    obj.writeAt(kVmPageBytes + 5, Bytes{9, 9});
    EXPECT_EQ(obj.resident, 2u); // two pages now have content
    Bytes out;
    obj.readAt(kVmPageBytes + 4, 4, &out);
    EXPECT_EQ(out, (Bytes{0, 9, 9, 0}));
}

// ---------------------------------------------------------------------------
// VmName: only literals and interned names, never a view that could
// dangle.

static_assert(std::is_constructible_v<VmName, const char (&)[6]>);
static_assert(!std::is_constructible_v<VmName, std::string>);
static_assert(!std::is_constructible_v<VmName, std::string_view>);
static_assert(!std::is_constructible_v<VmName, const char *>);

TEST(VmNameTest, InternKeepsOneCopyPerName)
{
    VmSubsystem vm;
    std::string a = "dylib:libSystem.dylib";
    VmName first = vm.intern(a);
    a.assign(a.size(), 'x'); // the caller's buffer may change or die
    VmName again = vm.intern("dylib:libSystem.dylib");
    EXPECT_EQ(first.view(), "dylib:libSystem.dylib");
    EXPECT_EQ(first, again);
    EXPECT_EQ(first.view().data(), again.view().data());
    EXPECT_NE(vm.intern("dylib:UIKit.dylib"), first);
    // A literal equals the interned name of the same text.
    EXPECT_EQ(VmName("dylib:libSystem.dylib"), first);
}

TEST(VmNameTest, ConcurrentInternsAndMappingsShareEachName)
{
    // Four host threads intern overlapping windows of one name set
    // and map each name into their own map, over and over.
    constexpr int kThreads = 4;
    constexpr int kNames = 48;
    constexpr int kRounds = 10;
    VmSubsystem vm;
    std::vector<std::vector<VmName>> seen(kThreads,
                                          std::vector<VmName>(kNames));
    std::vector<int> changed(kThreads, 0);
    std::vector<std::unique_ptr<VmMap>> maps;
    for (int t = 0; t < kThreads; ++t) {
        maps.push_back(std::make_unique<VmMap>());
        maps.back()->bind(&vm);
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r)
                for (int i = 0; i < kNames; ++i) {
                    int n = (i + 12 * t) % kNames;
                    VmName name = vm.intern("dylib:Lib" +
                                            std::to_string(n) + ".dylib");
                    if (r == 0)
                        seen[t][n] = name;
                    else if (name.view().data() != seen[t][n].view().data())
                        ++changed[t];
                    maps[t]->addMapping(name, 1 + n);
                }
        });
    for (std::thread &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(changed[t], 0) << "thread " << t;
    for (int n = 0; n < kNames; ++n) {
        std::string want = "dylib:Lib" + std::to_string(n) + ".dylib";
        for (int t = 0; t < kThreads; ++t) {
            EXPECT_EQ(seen[t][n].view(), want) << "thread " << t;
            EXPECT_EQ(seen[t][n].view().data(), seen[0][n].view().data())
                << "thread " << t << " name " << n;
        }
    }
    for (int t = 0; t < kThreads; ++t) {
        std::vector<VmEntry> entries = maps[t]->entriesSnapshot();
        ASSERT_EQ(entries.size(), std::size_t{kRounds * kNames});
        for (const VmEntry &e : entries)
            EXPECT_EQ(e.name, seen[0][e.pages - 1]);
    }
    EXPECT_EQ(vm.statsSnapshot().objectsCreated,
              std::uint64_t{kThreads * kRounds * kNames});
}

// ---------------------------------------------------------------------------
// VmMap

class VmMapTest : public ::testing::Test
{
  protected:
    VmMapTest() : scope_(clock_) { map_.bind(&vm_); }

    VmSubsystem vm_; // nexus7 cost table
    VmMap map_;
    CostClock clock_;
    CostScope scope_;
};

TEST_F(VmMapTest, AllocateWriteReadRoundTrip)
{
    std::uint64_t addr = map_.allocate("anon", 2);
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(map_.write(addr + 100, Bytes{4, 5, 6}), 0);
    Bytes out;
    ASSERT_EQ(map_.read(addr + 99, 5, &out), 0);
    EXPECT_EQ(out, (Bytes{0, 4, 5, 6, 0}));

    // Out-of-range and unmapped accesses fail cleanly.
    EXPECT_EQ(map_.write(addr + 2 * kVmPageBytes - 1, Bytes{1, 2}), -1);
    EXPECT_EQ(map_.read(0xdead0000, 1, &out), -1);

    EXPECT_TRUE(map_.deallocate(addr));
    EXPECT_EQ(map_.read(addr, 1, &out), -1);
    EXPECT_FALSE(map_.deallocate(addr));
}

TEST_F(VmMapTest, WriteRespectsProtection)
{
    VmObjectPtr obj = vm_.makeObject(1, 1);
    std::uint64_t addr =
        map_.mapObject("ro", obj, VM_PROT_READ, false, false);
    EXPECT_EQ(map_.write(addr, Bytes{1}), -1);
    Bytes out;
    EXPECT_EQ(map_.read(addr, 1, &out), 0);
}

TEST_F(VmMapTest, CowForkIsolatesWritesAndChargesTheFault)
{
    std::uint64_t addr = map_.allocate("heap", 2);
    ASSERT_EQ(map_.write(addr, Bytes{0xAA, 0xAA}), 0);

    VmMap child;
    child.forkFrom(map_, /*eager=*/false);

    // The child writes: first touch of a COW page pays the fault.
    std::uint64_t fault_cost = measureVirtual(
        [&] { ASSERT_EQ(child.write(addr, Bytes{0xBB}), 0); });
    EXPECT_GE(fault_cost, vm_.cowFaultNs());

    Bytes parent_view, child_view;
    ASSERT_EQ(map_.read(addr, 2, &parent_view), 0);
    ASSERT_EQ(child.read(addr, 2, &child_view), 0);
    EXPECT_EQ(parent_view, (Bytes{0xAA, 0xAA}));
    EXPECT_EQ(child_view, (Bytes{0xBB, 0xAA}));

    // A second write to the already-broken page is fault-free.
    std::uint64_t warm_cost = measureVirtual(
        [&] { ASSERT_EQ(child.write(addr + 1, Bytes{0xCC}), 0); });
    EXPECT_LT(warm_cost, vm_.cowFaultNs());

    VmStats s = vm_.statsSnapshot();
    EXPECT_EQ(s.cowForks, 1u);
    EXPECT_GE(s.cowFaults, 1u);
    EXPECT_GE(s.brokenPages, 1u);
}

TEST_F(VmMapTest, CowForkStrictlyCheaperThanEagerForDyldHeavyMap)
{
    // ~90 MB of resident dylib pages, the paper's fork dominator.
    constexpr std::uint64_t kPages = 22000;
    map_.addMapping("dylibs", kPages);

    VmMap cow_child;
    std::uint64_t cow_ns = measureVirtual(
        [&] { cow_child.forkFrom(map_, /*eager=*/false); });

    VmMap eager_child;
    std::uint64_t eager_ns = measureVirtual(
        [&] { eager_child.forkFrom(map_, /*eager=*/true); });

    // Both pay the protect sweep; eager additionally streams every
    // resident page's contents.
    EXPECT_GE(cow_ns, kPages * vm_.profile().pageCopyEntryNs);
    EXPECT_GT(eager_ns, cow_ns);
    EXPECT_GE(eager_ns - cow_ns,
              kPages * vm_.pageCopyBytesNs() / 2);
}

TEST_F(VmMapTest, SharedRegionIsOneObjectSystemWide)
{
    VmObjectPtr a = vm_.sharedRegion("dyld.shared-cache", 25000);
    VmObjectPtr b = vm_.sharedRegion("dyld.shared-cache", 999);
    EXPECT_EQ(a.get(), b.get()); // cached, pages from first creation
    EXPECT_EQ(a->pages, 25000u);
    EXPECT_TRUE(a->sharedRegion);

    map_.mapObject("dyld.shared-cache", a, VM_PROT_READ, false,
                   /*shared=*/true);
    EXPECT_EQ(map_.pages(), 25000u);
    EXPECT_EQ(map_.privatePages(), 0u);

    // fork aliases the shared submap without the protect sweep.
    VmMap child;
    std::uint64_t ns =
        measureVirtual([&] { child.forkFrom(map_, false); });
    EXPECT_LT(ns, 25000u * vm_.profile().pageCopyEntryNs / 100);
    EXPECT_EQ(child.pages(), 25000u);
}

// ---------------------------------------------------------------------------
// OOL snapshots: both dispositions (the deallocate=false regression).

TEST_F(VmMapTest, SnapshotDeallocateTrueMovesTheMapping)
{
    Bytes payload(kVmPageBytes, 0x5a);
    std::uint64_t addr = map_.mapObject(
        "payload", vm_.wrapBytes(Bytes(payload)), VM_PROT_RW,
        false, false);

    VmObjectPtr snap = map_.snapshotForSend(addr, /*deallocate=*/true);
    ASSERT_TRUE(snap);
    EXPECT_EQ(snap->data, payload);
    // The sender lost its mapping.
    EXPECT_EQ(map_.findByAddr(addr), nullptr);
}

TEST_F(VmMapTest, SnapshotDeallocateFalseKeepsSenderMappingCow)
{
    Bytes payload(64, 0x11);
    std::uint64_t addr = map_.mapObject(
        "payload", vm_.wrapBytes(Bytes(payload)), VM_PROT_RW,
        false, false);

    VmObjectPtr snap = map_.snapshotForSend(addr, /*deallocate=*/false);
    ASSERT_TRUE(snap);
    ASSERT_NE(map_.findByAddr(addr), nullptr); // sender keeps it

    // Later sender writes must not reach the in-flight snapshot.
    ASSERT_EQ(map_.write(addr, Bytes{0x22, 0x22}), 0);
    EXPECT_EQ(snap->data[0], 0x11);
    Bytes sender_view;
    ASSERT_EQ(map_.read(addr, 2, &sender_view), 0);
    EXPECT_EQ(sender_view, (Bytes{0x22, 0x22}));
}

TEST_F(VmMapTest, SnapshotOfBrokenEntryComposesShadow)
{
    std::uint64_t addr = map_.allocate("heap", 2);
    ASSERT_EQ(map_.write(addr, Bytes{1, 2}), 0);
    VmMap child;
    child.forkFrom(map_, false);
    ASSERT_EQ(child.write(addr, Bytes{7}), 0); // breaks page 0

    VmObjectPtr snap = child.snapshotForSend(addr, false);
    ASSERT_TRUE(snap);
    Bytes head;
    snap->readAt(0, 2, &head);
    EXPECT_EQ(head, (Bytes{7, 2}));
    // The parent's view is untouched by the child's snapshot.
    Bytes parent_view;
    ASSERT_EQ(map_.read(addr, 2, &parent_view), 0);
    EXPECT_EQ(parent_view, (Bytes{1, 2}));
}

// ---------------------------------------------------------------------------
// Mach IPC riding the VM layer.

class VmIpcTest : public ::testing::Test
{
  protected:
    VmIpcTest() : scope_(clock_)
    {
        ipc_.setVm(&vm_);
        space_ = ipc_.createSpace();
        smap_.bind(&vm_);
        rmap_.bind(&vm_);
        ipc_.portAllocate(*space_, xnu::PortRight::Receive, &port_);
    }

    std::uint64_t
    sendReceive(std::size_t body_bytes, xnu::MachMessage *out)
    {
        xnu::MachMessage msg;
        msg.header.remotePort = port_;
        msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
        msg.body = Bytes(body_bytes, 0x33);
        return measureVirtual([&] {
            EXPECT_EQ(ipc_.msgSend(*space_, std::move(msg)),
                      xnu::KERN_SUCCESS);
            EXPECT_EQ(ipc_.msgReceive(*space_, port_, *out),
                      xnu::KERN_SUCCESS);
        });
    }

    VmSubsystem vm_;
    xnu::MachIpc ipc_;
    xnu::SpacePtr space_;
    VmMap smap_, rmap_;
    xnu::mach_port_name_t port_ = xnu::MACH_PORT_NULL;
    CostClock clock_;
    CostScope scope_;
};

TEST_F(VmIpcTest, OolDeallocateTrueMovesRegionZeroCopy)
{
    Bytes payload(2 * kVmPageBytes, 0xab);
    std::uint64_t addr = smap_.mapObject(
        "region", vm_.wrapBytes(Bytes(payload)), VM_PROT_RW,
        false, false);

    xnu::MachMessage msg;
    msg.header.remotePort = port_;
    msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
    xnu::OolDescriptor ool;
    ASSERT_EQ(ipc_.makeOolFromRegion(smap_, addr, /*deallocate=*/true,
                                     &ool),
              xnu::KERN_SUCCESS);
    msg.ool.push_back(std::move(ool));
    ASSERT_EQ(ipc_.msgSend(*space_, std::move(msg)), xnu::KERN_SUCCESS);
    EXPECT_EQ(smap_.findByAddr(addr), nullptr); // moved out

    xnu::MachMessage out;
    xnu::RcvOptions opts;
    opts.mapInto = &rmap_;
    ASSERT_EQ(ipc_.msgReceive(*space_, port_, out, opts),
              xnu::KERN_SUCCESS);
    ASSERT_EQ(out.ool.size(), 1u);
    ASSERT_NE(out.ool[0].address, 0u);

    Bytes got;
    ASSERT_EQ(rmap_.read(out.ool[0].address, payload.size(), &got), 0);
    EXPECT_EQ(got, payload);
    EXPECT_GE(vm_.statsSnapshot().oolZeroCopySends, 1u);
}

TEST_F(VmIpcTest, OolDeallocateFalseSenderKeepsMappingAndIsolation)
{
    Bytes payload(256, 0x44);
    std::uint64_t addr = smap_.mapObject(
        "region", vm_.wrapBytes(Bytes(payload)), VM_PROT_RW,
        false, false);

    xnu::MachMessage msg;
    msg.header.remotePort = port_;
    msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
    xnu::OolDescriptor ool;
    ASSERT_EQ(ipc_.makeOolFromRegion(smap_, addr, /*deallocate=*/false,
                                     &ool),
              xnu::KERN_SUCCESS);
    msg.ool.push_back(std::move(ool));
    ASSERT_EQ(ipc_.msgSend(*space_, std::move(msg)), xnu::KERN_SUCCESS);

    // The sender keeps its mapping and keeps writing — the message in
    // flight must not see those writes.
    ASSERT_NE(smap_.findByAddr(addr), nullptr);
    ASSERT_EQ(smap_.write(addr, Bytes{0x55, 0x55}), 0);

    xnu::MachMessage out;
    xnu::RcvOptions opts;
    opts.mapInto = &rmap_;
    ASSERT_EQ(ipc_.msgReceive(*space_, port_, out, opts),
              xnu::KERN_SUCCESS);
    ASSERT_EQ(out.ool.size(), 1u);
    Bytes got;
    ASSERT_EQ(rmap_.read(out.ool[0].address, payload.size(), &got), 0);
    EXPECT_EQ(got, payload);

    // And the receiver's COW mapping is private: writing it leaves
    // the sender's view alone.
    ASSERT_EQ(rmap_.write(out.ool[0].address, Bytes{0x66}), 0);
    Bytes sender_view;
    ASSERT_EQ(smap_.read(addr, 2, &sender_view), 0);
    EXPECT_EQ(sender_view, (Bytes{0x55, 0x55}));
}

TEST_F(VmIpcTest, LargeInlineBodyAutoPromotesToOol)
{
    std::uint64_t threshold = ipc_.oolPromoteThreshold();
    EXPECT_GT(threshold, 0u);

    xnu::MachMessage out;
    sendReceive(threshold - 1, &out);
    EXPECT_EQ(out.body.size(), threshold - 1);
    VmStats s = vm_.statsSnapshot();
    EXPECT_EQ(s.inlineBodies, 1u);
    EXPECT_EQ(s.oolPromotedBodies, 0u);

    sendReceive(threshold, &out);
    EXPECT_EQ(out.body.size(), threshold);
    EXPECT_EQ(out.body[0], 0x33);
    s = vm_.statsSnapshot();
    EXPECT_EQ(s.oolPromotedBodies, 1u);
}

TEST_F(VmIpcTest, PromotionBeatsInlineCopyPastTheThreshold)
{
    constexpr std::size_t kBig = 1 << 16;
    xnu::MachMessage out;
    std::uint64_t promoted_ns = sendReceive(kBig, &out);

    ipc_.setOolPromoteThreshold(0); // disable promotion
    std::uint64_t inline_ns = sendReceive(kBig, &out);
    EXPECT_LT(promoted_ns, inline_ns);
    // The promoted path is size-independent; the inline path pays per
    // byte on both sides.
    EXPECT_GE(inline_ns, 2 * (kBig / 4));
}

// ---------------------------------------------------------------------------
// VM traps + /proc/cider/vm through a full kernel.

class VmTrapTest : public ::testing::Test
{
  protected:
    VmTrapTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_)
    {
        ipc_.setVm(&kernel_.vm());
        mgr_.install();
        proc_ = &kernel_.createProcess("vmapp", Persona::Ios);
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<ThreadScope>(*thread_);
    }

    SyscallResult
    mach(int nr, SyscallArgs args)
    {
        return kernel_.trap(*thread_, TrapClass::XnuMach, nr,
                            std::move(args));
    }

    Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    Process *proc_;
    Thread *thread_;
    std::unique_ptr<ThreadScope> scope_;
};

TEST_F(VmTrapTest, VmTrapsRoundTrip)
{
    std::uint64_t addr = 0;
    SyscallResult r =
        mach(xnu::machno::VM_ALLOCATE,
             makeArgs(std::uint64_t{8192}, static_cast<void *>(&addr)));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value, xnu::KERN_SUCCESS);
    ASSERT_NE(addr, 0u);

    Bytes pattern{1, 2, 3, 4};
    EXPECT_EQ(mach(xnu::machno::VM_WRITE,
                   makeArgs(addr + 8,
                            static_cast<const Bytes *>(&pattern)))
                  .value,
              xnu::KERN_SUCCESS);
    Bytes back;
    EXPECT_EQ(mach(xnu::machno::VM_READ,
                   makeArgs(addr + 8, std::uint64_t{4},
                            static_cast<Bytes *>(&back)))
                  .value,
              xnu::KERN_SUCCESS);
    EXPECT_EQ(back, pattern);

    EXPECT_EQ(mach(xnu::machno::VM_DEALLOCATE, makeArgs(addr)).value,
              xnu::KERN_SUCCESS);
    EXPECT_EQ(mach(xnu::machno::VM_DEALLOCATE, makeArgs(addr)).value,
              xnu::KERN_INVALID_ADDRESS);
    EXPECT_EQ(mach(xnu::machno::VM_WRITE,
                   makeArgs(addr, static_cast<const Bytes *>(&pattern)))
                  .value,
              xnu::KERN_INVALID_ADDRESS);
}

TEST_F(VmTrapTest, OolLandsAsCowMappingViaMachMsgTrap)
{
    xnu::mach_port_name_t port = xnu::MACH_PORT_NULL;
    ASSERT_EQ(mach(xnu::machno::PORT_ALLOCATE,
                   makeArgs(static_cast<std::uint64_t>(
                                xnu::PortRight::Receive),
                            static_cast<void *>(&port)))
                  .value,
              xnu::KERN_SUCCESS);

    xnu::MachMessage msg;
    msg.header.remotePort = port;
    msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
    xnu::OolDescriptor ool;
    ool.data = Bytes(300, 0x77);
    msg.ool.push_back(std::move(ool));
    ASSERT_EQ(mach(xnu::machno::MACH_MSG,
                   makeArgs(static_cast<void *>(&msg),
                            xnu::machmsg::SEND, std::uint64_t{0},
                            static_cast<void *>(nullptr)))
                  .value,
              xnu::KERN_SUCCESS);

    xnu::MachMessage rcv;
    ASSERT_EQ(mach(xnu::machno::MACH_MSG,
                   makeArgs(static_cast<void *>(nullptr),
                            xnu::machmsg::RCV,
                            static_cast<std::uint64_t>(port),
                            static_cast<void *>(&rcv)))
                  .value,
              xnu::KERN_SUCCESS);
    ASSERT_EQ(rcv.ool.size(), 1u);
    ASSERT_NE(rcv.ool[0].address, 0u);

    // The region is mapped into this process; VM_READ sees it and a
    // VM_WRITE breaks it COW.
    Bytes got;
    EXPECT_EQ(mach(xnu::machno::VM_READ,
                   makeArgs(rcv.ool[0].address, std::uint64_t{300},
                            static_cast<Bytes *>(&got)))
                  .value,
              xnu::KERN_SUCCESS);
    EXPECT_EQ(got, Bytes(300, 0x77));
    Bytes poke{9};
    EXPECT_EQ(mach(xnu::machno::VM_WRITE,
                   makeArgs(rcv.ool[0].address,
                            static_cast<const Bytes *>(&poke)))
                  .value,
              xnu::KERN_SUCCESS);
    EXPECT_GE(kernel_.vm().statsSnapshot().cowFaults, 1u);
}

TEST_F(VmTrapTest, ProcDeviceReportsEntriesAndCounters)
{
    proc_->mem().addMapping("dylib:libx.dylib", 12);
    std::uint64_t addr = 0;
    mach(xnu::machno::VM_ALLOCATE,
         makeArgs(std::uint64_t{4096}, static_cast<void *>(&addr)));

    SyscallResult fd =
        kernel_.sysOpen(*thread_, "/proc/cider/vm", oflag::RDONLY);
    ASSERT_TRUE(fd.ok());
    Bytes out;
    SyscallResult n = kernel_.sysRead(
        *thread_, static_cast<Fd>(fd.value), out, 65536);
    ASSERT_TRUE(n.ok());
    std::string text(out.begin(), out.end());
    EXPECT_NE(text.find("vm objects_created="), std::string::npos);
    EXPECT_NE(text.find("dylib:libx.dylib"), std::string::npos);
    EXPECT_NE(text.find("vm_allocate"), std::string::npos);
    EXPECT_NE(text.find("vmapp"), std::string::npos);
    kernel_.sysClose(*thread_, static_cast<Fd>(fd.value));
}

// ---------------------------------------------------------------------------
// Fork cost through the kernel: always COW, far below an eager copy.

TEST_F(VmTrapTest, KernelForkCowBeatsEagerForDyldHeavyProcess)
{
    proc_->mem().addMapping("dylibs", 22000);
    VmStats before = kernel_.vm().statsSnapshot();
    std::uint64_t fork_ns = measureVirtual([&] {
        SyscallResult r =
            kernel_.sysFork(*thread_, [](Thread &) { return 0; });
        int status;
        kernel_.sysWaitpid(*thread_, static_cast<Pid>(r.value), &status);
    });
    VmStats after = kernel_.vm().statsSnapshot();
    EXPECT_EQ(after.cowForks - before.cowForks, 1u);
    EXPECT_EQ(after.eagerForks - before.eagerForks, 0u);
    // Half the content copy an eager fork of these pages would charge.
    EXPECT_LT(fork_ns, 22000 * kernel_.vm().pageCopyBytesNs() / 2);
}

// ---------------------------------------------------------------------------
// SchedRail: a writer interleaved against an in-flight OOL copyin.

struct OolRaceScenario
{
    VmSubsystem vm;
    VmMap map;
    std::uint64_t addr = 0;
    VmObjectPtr snap;
    int writeRc = -99;

    OolRaceScenario()
    {
        map.bind(&vm);
        addr = map.mapObject("region",
                             vm.wrapBytes(Bytes(2 * kVmPageBytes, 0x41)),
                             VM_PROT_RW, false, false);
    }

    void
    spawn(SchedRail &sr)
    {
        sr.spawn("sender", [this] {
            snap = map.snapshotForSend(addr, /*deallocate=*/false);
        });
        sr.spawn("writer", [this] {
            writeRc = map.write(addr + 10, Bytes{0xBB});
        });
    }
};

struct OolRaceOutcome
{
    SchedResult result;
    std::uint8_t snapByte = 0;
    Bytes mapView;
    bool ok = false;
};

OolRaceOutcome
runOolRace(SchedPolicy policy, std::uint64_t seed,
           std::vector<std::uint32_t> schedule = {})
{
    SchedRail &sr = SchedRail::global();
    SchedOptions opt;
    opt.policy = policy;
    opt.seed = seed;
    opt.schedule = std::move(schedule);
    sr.arm(opt);

    OolRaceScenario sc;
    sc.spawn(sr);
    OolRaceOutcome out;
    out.result = sr.run();
    sr.disarm();

    Bytes b;
    sc.snap->readAt(10, 1, &b);
    out.snapByte = b[0];
    sc.map.read(sc.addr + 10, 1, &out.mapView);
    // Whatever the interleaving, (a) the writer's byte reached the
    // sender's view, (b) the snapshot holds either the original or
    // the written byte — never a torn/isolated-in-reverse state where
    // the write leaks into the snapshot but not the map.
    out.ok = out.result.completed && !out.result.deadlocked &&
             sc.writeRc == 0 && out.mapView == Bytes{0xBB} &&
             (out.snapByte == 0x41 || out.snapByte == 0xBB);
    return out;
}

class VmInterleavingTest : public ::testing::Test
{
  protected:
    VmInterleavingTest() { SchedRail::global().disarm(); }
    ~VmInterleavingTest() override { SchedRail::global().disarm(); }
};

TEST_F(VmInterleavingTest, WriterVsInFlightOolHoldsUnderSeededSweep)
{
    bool saw_pre = false, saw_post = false;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        OolRaceOutcome o = runOolRace(SchedPolicy::Random, seed);
        EXPECT_TRUE(o.ok)
            << "seed " << seed << " snapByte=" << int(o.snapByte) << "\n"
            << o.result.traceText();
        saw_pre |= o.snapByte == 0x41;
        saw_post |= o.snapByte == 0xBB;
    }
    // The sweep actually explored both orders.
    EXPECT_TRUE(saw_pre);
    EXPECT_TRUE(saw_post);
}

TEST_F(VmInterleavingTest, WriterVsInFlightOolScheduleIsPinnable)
{
    OolRaceOutcome rec = runOolRace(SchedPolicy::Random, 4242);
    ASSERT_TRUE(rec.ok) << rec.result.traceText();

    std::vector<std::uint32_t> pinned =
        SchedResult::parseSchedule(rec.result.traceText());
    ASSERT_EQ(pinned, rec.result.schedule());
    OolRaceOutcome rep = runOolRace(SchedPolicy::Replay, 0, pinned);
    EXPECT_FALSE(rep.result.diverged);
    EXPECT_TRUE(rep.ok);
    EXPECT_EQ(rep.snapByte, rec.snapByte);
    EXPECT_EQ(rep.result.traceText(), rec.result.traceText());
}


// ---------------------------------------------------------------------------
// A pinned end-to-end sequence: dyld launch, fork, COW and non-COW writes
// into image pages, OOL sends of image mappings, the vm_* traps, exit and
// reap, on one host thread with services off. The /proc/cider/vm and
// /proc/cider/trapstats texts it leaves are a pure function of the
// program. Their digests were recorded when every image mapping still
// made its VmObject up front and a wait left the child in the process
// table, so they pin both changes as unobservable.

/** FNV-1a 64 of @p text. */
std::uint64_t
textDigest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
procText(binfmt::UserEnv &env, const char *path)
{
    SyscallResult fd = env.kernel.sysOpen(env.thread, path, oflag::RDONLY);
    if (!fd.ok())
        return {};
    Bytes out;
    env.kernel.sysRead(env.thread, static_cast<Fd>(fd.value), out, 1 << 20);
    env.kernel.sysClose(env.thread, static_cast<Fd>(fd.value));
    return std::string(out.begin(), out.end());
}

/** Base address of the entry named @p name in the calling process. */
std::uint64_t
entryBase(binfmt::UserEnv &env, const std::string &name)
{
    for (const VmEntry &e : env.process().mem().entriesSnapshot())
        if (std::string_view(e.name) == name)
            return e.base;
    return 0;
}

SyscallResult
vmTrap(binfmt::UserEnv &env, int nr, SyscallArgs args)
{
    return env.kernel.trap(env.thread, TrapClass::XnuMach, nr,
                           std::move(args));
}

struct GoldenTexts
{
    std::string vmForked;  ///< parent's view with the zombie child
    std::string vmDone;    ///< parent's view before it exits
    std::string vmReaped;  ///< after every process is reaped
    std::string trapstats; ///< after every process is reaped
    int rc = -1;
};

GoldenTexts
runGoldenSequence()
{
    core::SystemOptions opts;
    opts.config = core::SystemConfig::CiderIos;
    core::CiderSystem sys(opts);
    GoldenTexts out;
    int child_pid = 0;
    sys.installMachOExecutable(
        "/data/golden", "golden.main", [&](binfmt::UserEnv &env) -> int {
            ios::LibSystem libc(env);
            const std::uint64_t a = entryBase(env, "dylib:libSystem.dylib");
            const std::uint64_t b = entryBase(env, "dylib:Foundation.dylib");
            const std::uint64_t c = entryBase(env, "dylib:UIKit.dylib");
            const std::uint64_t d = entryBase(env, "dylib:QuartzCore.dylib");
            if (!a || !b || !c || !d)
                return 1;

            // Non-COW write into an image page (before any fork).
            Bytes poke{1, 2, 3, 4, 5};
            const Bytes *src = &poke;
            vmTrap(env, xnu::machno::VM_WRITE, makeArgs(a + 100, src));

            // Fork: the child breaks one page COW, reads, and exits.
            child_pid = libc.fork([&](Thread &ct) -> int {
                binfmt::UserEnv cenv{env.kernel, ct, {}};
                Bytes cpoke{9, 9};
                const Bytes *csrc = &cpoke;
                vmTrap(cenv, xnu::machno::VM_WRITE,
                       makeArgs(b + kVmPageBytes + 7, csrc));
                Bytes got;
                vmTrap(cenv, xnu::machno::VM_READ,
                       makeArgs(a + 98, std::uint64_t{10},
                                static_cast<Bytes *>(&got)));
                ios::LibSystem clibc(cenv);
                clibc.exit(got == Bytes{0, 0, 1, 2, 3, 4, 5, 0, 0, 0} ? 0
                                                                      : 3);
            });
            out.vmForked = procText(env, "/proc/cider/vm");
            int status = -1;
            libc.wait4(child_pid, &status);
            if (status != 0)
                return 2;
            // The child is gone; a lingering table entry, where the
            // wait left one, is released here.
            env.kernel.reapProcess(child_pid);

            // COW writes into image pages after the fork.
            Bytes cow{7};
            const Bytes *csrc = &cow;
            vmTrap(env, xnu::machno::VM_WRITE, makeArgs(c + 5, csrc));
            vmTrap(env, xnu::machno::VM_WRITE, makeArgs(a + 3, csrc));

            // OOL sends of image mappings: one kept by the sender and
            // mapped into the receiver by the trap, one moved out and
            // received without a map.
            xnu::MachIpc &ipc = sys.machIpc();
            xnu::mach_port_name_t port =
                libc.machPortAllocate(xnu::PortRight::Receive);
            xnu::MachMessage m1;
            m1.header.remotePort = port;
            m1.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
            xnu::OolDescriptor kept;
            ipc.makeOolFromRegion(env.process().mem(), b, false, &kept);
            m1.ool.push_back(std::move(kept));
            libc.machMsgSend(m1);
            xnu::MachMessage r1;
            libc.machMsgReceive(port, r1);
            if (r1.ool.size() != 1 || r1.ool[0].address == 0)
                return 4;
            Bytes got;
            vmTrap(env, xnu::machno::VM_READ,
                   makeArgs(r1.ool[0].address + kVmPageBytes + 5,
                            std::uint64_t{4}, static_cast<Bytes *>(&got)));
            Bytes landed_poke{6};
            const Bytes *lsrc = &landed_poke;
            vmTrap(env, xnu::machno::VM_WRITE,
                   makeArgs(r1.ool[0].address + 1, lsrc));

            xnu::MachMessage m2;
            m2.header.remotePort = port;
            m2.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
            xnu::OolDescriptor moved;
            ipc.makeOolFromRegion(env.process().mem(), d, true, &moved);
            m2.ool.push_back(std::move(moved));
            libc.machMsgSend(m2);
            xnu::MachMessage r2;
            xnu::MachTaskState &task = xnu::machTask(ipc, env.process());
            ipc.msgReceive(*task.space, port, r2);

            // vm_allocate / write / read / deallocate.
            std::uint64_t anon = 0;
            vmTrap(env, xnu::machno::VM_ALLOCATE,
                   makeArgs(std::uint64_t{3 * kVmPageBytes},
                            static_cast<void *>(&anon)));
            vmTrap(env, xnu::machno::VM_WRITE,
                   makeArgs(anon + kVmPageBytes, src));
            vmTrap(env, xnu::machno::VM_READ,
                   makeArgs(anon + kVmPageBytes, std::uint64_t{5},
                            static_cast<Bytes *>(&got)));
            vmTrap(env, xnu::machno::VM_DEALLOCATE, makeArgs(anon));
            out.vmDone = procText(env, "/proc/cider/vm");
            return got == poke ? 0 : 5;
        });
    sys.runProgramTimed("/data/golden", {}, &out.rc);
    out.vmReaped = dumpVm(sys.kernel());
    out.trapstats = sys.trapStats().dump();
    return out;
}

TEST(VmGolden, FixedSequenceProcTextsArePinned)
{
    GoldenTexts t = runGoldenSequence();
    ASSERT_EQ(t.rc, 0);
    // The counters, verbatim.
    EXPECT_EQ(t.vmReaped.substr(0, t.vmReaped.find("pid ")),
              "vm objects_created=121 cow_faults=4 broken_pages=4 "
              "shared_region_pages=0\n"
              "   forks cow=1 eager=0\n"
              "   ool zero_copy_sends=4 promoted_bodies=0 inline_bodies=0\n")
        << t.vmReaped;
    EXPECT_EQ(textDigest(t.vmForked), 13765883561855324934ull)
        << t.vmForked;
    EXPECT_EQ(textDigest(t.vmDone), 5364037397459660001ull) << t.vmDone;
    EXPECT_EQ(textDigest(t.vmReaped), 9486500537953660749ull)
        << t.vmReaped;
    EXPECT_EQ(textDigest(t.trapstats), 2575994397049730877ull)
        << t.trapstats;
}

} // namespace
} // namespace cider::kernel
