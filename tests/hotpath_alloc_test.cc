/**
 * @file
 * Steady-state heap-allocation audits for the hot paths.
 *
 * A counting global operator new/delete pair observes every heap
 * allocation the process makes. The tests drive a subsystem to its
 * steady state first (warm-up populates free-lists, ring slots and
 * dentry entries), then assert that the hot loop itself allocates
 * NOTHING:
 *
 *  - Mach IPC send/receive with the message buffer recycled
 *    receiver-to-sender — the KMsg ring slots absorb the traffic;
 *  - cached VFS lookups — the dentry cache returns by value but the
 *    Lookup's leaf stays inside the small-string buffer;
 *  - zalloc alloc/free inside the free-listed working set;
 *  - mapping, COW-forking and destroying a launch's dylib images:
 *    only the entry vectors allocate, nothing per image.
 *  - a trap on a booted Cider kernel: a null syscall and a diplomat's
 *    persona hop allocate nothing, and the open/close of a cached path
 *    allocates only the open file and its description (the argument
 *    list is inline and lends the path).
 *
 * Run under ASan these tests double as lifetime checks on the
 * recycled buffers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "diplomat/diplomat.h"
#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "ios/libsystem.h"
#include "kernel/kernel.h"
#include "kernel/vfs.h"
#include "kernel/vm.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/mach_ipc.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// Counting overloads: every allocation path funnels through these.
// They all stay out of line: where GCC inlines only one side of a
// new/delete pair, it sees malloc() or free() meet an operator and
// warns -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cider {
namespace {

template <typename Fn>
std::uint64_t
allocsDuring(Fn &&fn)
{
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAlloc, IpcSendReceiveSteadyStateIsHeapFree)
{
    xnu::MachIpc ipc;
    xnu::SpacePtr space = ipc.createSpace();
    xnu::mach_port_name_t port = 0;
    ASSERT_EQ(ipc.portAllocate(*space, xnu::PortRight::Receive, &port),
              xnu::KERN_SUCCESS);

    Bytes body(64, 0x5a);
    auto roundtrip = [&] {
        xnu::MachMessage msg;
        msg.header.remotePort = port;
        msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
        msg.header.msgId = 7;
        msg.body = std::move(body);
        ASSERT_EQ(ipc.msgSend(*space, std::move(msg)), xnu::KERN_SUCCESS);
        xnu::MachMessage out;
        ASSERT_EQ(ipc.msgReceive(*space, port, out), xnu::KERN_SUCCESS);
        // Receive-side buffer reuse: the body returns to the sender.
        body = std::move(out.body);
    };

    // Warm-up: ring slots and the send-right entry come into being.
    for (int i = 0; i < 32; ++i)
        roundtrip();

    std::uint64_t allocs = allocsDuring([&] {
        for (int i = 0; i < 1000; ++i)
            roundtrip();
    });
    EXPECT_EQ(allocs, 0u)
        << "steady-state send/receive touched the heap";
}

TEST(HotPathAlloc, CachedVfsLookupSteadyStateIsHeapFree)
{
    kernel::Vfs vfs(hw::DeviceProfile::nexus7());
    vfs.mkdirAll("/usr/lib/system");
    // Leaf short enough for the small-string buffer: the cached
    // Lookup copy then allocates nothing. The full path is hoisted so
    // the loop isn't charged for rebuilding the key string.
    const std::string path = "/usr/lib/system/liba.dylib";
    ASSERT_TRUE(vfs.writeFile(path, Bytes{1}).ok());

    // Warm-up populates the dentry entry.
    ASSERT_NE(vfs.lookup(path).inode, nullptr);

    std::uint64_t allocs = allocsDuring([&] {
        for (int i = 0; i < 1000; ++i) {
            kernel::Lookup lk = vfs.lookup(path);
            ASSERT_NE(lk.inode, nullptr);
        }
    });
    EXPECT_EQ(allocs, 0u) << "cached lookup touched the heap";
    EXPECT_GE(vfs.dentryCacheStats().hits, 1000u);
}

TEST(HotPathAlloc, ZallocInsideWorkingSetIsHeapFree)
{
    ducttape::ZoneT *zone = ducttape::zinit(128, "test.hotpath");
    void *ptrs[64];
    // Warm-up: one slab refill covers the whole working set.
    for (int i = 0; i < 64; ++i)
        ptrs[i] = ducttape::zalloc(zone);
    for (int i = 0; i < 64; ++i)
        ducttape::zfree(zone, ptrs[i]);

    std::uint64_t allocs = allocsDuring([&] {
        for (int round = 0; round < 100; ++round) {
            for (int i = 0; i < 64; ++i)
                ptrs[i] = ducttape::zalloc(zone);
            for (int i = 0; i < 64; ++i)
                ducttape::zfree(zone, ptrs[i]);
        }
    });
    EXPECT_EQ(allocs, 0u) << "free-listed zalloc touched the heap";
    ducttape::zdestroy(zone);
}

TEST(HotPathAlloc, ImageMapForkAndTeardownAllocateNothingPerImage)
{
    // One iOS launch's worth of dylib mappings, names interned up
    // front as dyld's launch plan interns them.
    constexpr int kImages = 115;
    kernel::VmSubsystem vm;
    std::vector<kernel::VmName> names;
    for (int i = 0; i < kImages; ++i)
        names.push_back(
            vm.intern("dylib:Image" + std::to_string(i) + ".dylib"));

    // Map, COW-fork and destroy both maps.
    auto launch = [&] {
        auto parent = std::make_unique<kernel::VmMap>();
        parent->bind(&vm);
        for (kernel::VmName name : names)
            parent->addMapping(name, 190);
        auto child = std::make_unique<kernel::VmMap>();
        child->forkFrom(*parent, /*eager=*/false);
        child.reset();
        parent.reset();
    };
    // Per launch: two maps, the parent's entry vector growing by
    // doubling to 128 slots (8 blocks), the child's reserved once.
    std::uint64_t allocs = allocsDuring(launch);
    EXPECT_LE(allocs, 2u + 8u + 1u)
        << "an image mapping, its fork or its teardown touched the heap";

    // An exec reuses its map: the parent's vector is already sized,
    // so only the child's reserve remains.
    kernel::VmMap parent;
    parent.bind(&vm);
    auto exec = [&] {
        parent.reset();
        for (kernel::VmName name : names)
            parent.addMapping(name, 190);
        kernel::VmMap child;
        child.forkFrom(parent, /*eager=*/false);
    };
    exec();
    EXPECT_EQ(allocsDuring(exec), 1u);
    EXPECT_EQ(vm.statsSnapshot().objectsCreated, 3u * kImages);
}

/** A booted Cider kernel: the persona dispatcher installed and one iOS
 *  app whose main thread runs on the calling host thread. */
class TrapAllocTest : public ::testing::Test
{
  protected:
    TrapAllocTest()
        : kernel_(hw::DeviceProfile::nexus7()), mgr_(kernel_, ipc_, psynch_)
    {
        mgr_.install();
        app_ = &kernel_.createProcess("iapp", kernel::Persona::Ios);
    }

    kernel::Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    kernel::Process *app_ = nullptr;
};

TEST_F(TrapAllocTest, NullSyscallAndPersonaHopAllocateNothing)
{
    kernel::Thread &t = app_->mainThread();
    kernel::ThreadScope scope(t);
    binfmt::UserEnv env{kernel_, t, {}};
    auto null_trap = [&] {
        ASSERT_TRUE(kernel_
                        .trap(t, kernel::TrapClass::XnuBsd,
                              xnu::xnuno::NULL_SYSCALL, kernel::makeArgs())
                        .ok());
    };
    // A diplomat call's round trip: two set_persona traps.
    auto hop = [&] {
        diplomat::switchPersona(env, kernel::Persona::Android);
        diplomat::switchPersona(env, kernel::Persona::Ios);
    };
    // Warm-up: this host thread's trap shard comes into being.
    for (int i = 0; i < 32; ++i) {
        null_trap();
        hop();
    }

    EXPECT_EQ(allocsDuring([&] {
                  for (int i = 0; i < 1000; ++i)
                      null_trap();
              }),
              0u)
        << "a null syscall touched the heap";
    EXPECT_EQ(allocsDuring([&] {
                  for (int i = 0; i < 1000; ++i)
                      hop();
              }),
              0u)
        << "a persona hop touched the heap";
    EXPECT_EQ(t.persona(), kernel::Persona::Ios);
}

TEST_F(TrapAllocTest, CachedOpenCloseAllocatesOnlyTheOpenFile)
{
    // Longer than the small-string buffer, so a copy of the path would
    // allocate; the leaf is short, so the cached Lookup copy does not.
    const std::string path = "/tmp/hotpath/alloc.bin";
    ASSERT_GT(path.size(), 15u);
    ASSERT_TRUE(kernel_.vfs().mkdirAll("/tmp/hotpath").ok());
    ASSERT_TRUE(kernel_.vfs().writeFile(path, Bytes(64, 0x5a)).ok());

    // dyld's per-image probe: open and close through libSystem.
    kernel::Thread &t = app_->mainThread();
    kernel::ThreadScope scope(t);
    binfmt::UserEnv env{kernel_, t, {}};
    ios::LibSystem libc(env);
    auto open_close = [&] {
        int fd = libc.open(path, kernel::oflag::RDONLY);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(libc.close(fd), 0);
    };
    // Warm-up: the dentry entry, the fd slot and the trap shard.
    for (int i = 0; i < 32; ++i)
        open_close();

    // Per pair: the RegularFile and its FileDescription, nothing else.
    EXPECT_EQ(allocsDuring([&] {
                  for (int i = 0; i < 1000; ++i)
                      open_close();
              }),
              2u * 1000u)
        << "an open/close pair allocated more than its open file";
}

} // namespace
} // namespace cider
