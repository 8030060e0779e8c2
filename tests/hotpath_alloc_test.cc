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

#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/vfs.h"
#include "kernel/vm.h"
#include "xnu/mach_ipc.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// Counting overloads: every allocation path funnels through these.
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
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

} // namespace
} // namespace cider
