/**
 * @file
 * CiderVM: the minimal real vm_map layer (ROADMAP item 2).
 *
 * The paper's fork/exec and IPC rows are dominated by address-space
 * work: duplicating ~90 MB of dylib page tables on fork and copying
 * message bodies through the Mach path. This module replaces the old
 * flat (name, pages) accounting with a small but real VM subsystem,
 * shaped after XNU's vm_map/vm_object split:
 *
 *  - VmObject: a refcounted backing store with page-granularity
 *    residency (how many pages have established content) and the
 *    content bytes themselves, lazily extended;
 *  - VmEntry: one mapped range of a task — an interned name,
 *    protection, a COW flag, and a shared-submap flag (the dyld
 *    shared-cache region). An image mapping (addMapping) has no
 *    backing object until something needs one (DESIGN.md §13);
 *  - VmMap: a task's entry list. fork() aliases entries copy-on-write
 *    instead of copying page contents eagerly; the first write to a
 *    COW page takes a fault, charged on the writer's CostClock
 *    (profile pageFaultNs + one page of stream-copy cost);
 *  - VmSubsystem: system-wide state — cost tables, counters for
 *    /proc/cider/vm, the entry-name table, and the shared-region
 *    registry (one VmObject per system for the dyld shared cache,
 *    mapped per process as a shared submap entry).
 *
 * Mach OOL descriptors ride this layer too: copyin snapshots a mapped
 * region into a VmObject reference (zero-copy when no pages were
 * privately broken), the reference moves through the KMsg ring, and
 * the receiver maps it back COW (xnu/mach_ipc.cc).
 *
 * Determinism: every charge flows through the calling simulated
 * thread's CostClock; subsystem counters are host-only relaxed
 * atomics (SMP epoch-merge safe). The COW break is a SchedRail yield point
 * ("vm.fault") taken with no VmMap lock held, so armed schedules can
 * interleave writers against in-flight OOL sends. FaultRail sites:
 * "vm.allocate" (allocation shortfall) and "vm.fault" (a COW break
 * that fails like a paging error).
 */

#ifndef CIDER_KERNEL_VM_H
#define CIDER_KERNEL_VM_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "base/bytes.h"
#include "hw/device_profile.h"

namespace cider::kernel {

class Kernel;

/** Simulated page size (ARM 4K pages on both paper devices). */
inline constexpr std::uint64_t kVmPageBytes = 4096;

/** Entry protection bits. */
enum VmProt : std::uint8_t
{
    VM_PROT_NONE = 0,
    VM_PROT_READ = 1,
    VM_PROT_WRITE = 2,
    VM_PROT_RW = 3,
};

/**
 * Ticket on the process-wide live-VmObject count: constructed (and
 * copied) objects increment it, destroyed objects decrement it. The
 * fleet leak audit reads the balance via vmLiveObjects() — any
 * VmObject alive anywhere (maps, COW shadows, in-flight OOL
 * descriptors) counts, regardless of which VmSubsystem made it.
 */
struct VmLiveTally
{
    VmLiveTally() noexcept;
    VmLiveTally(const VmLiveTally &) noexcept;
    VmLiveTally &operator=(const VmLiveTally &) noexcept { return *this; }
    ~VmLiveTally();
};

/** Number of VmObjects currently alive, process-wide. */
std::uint64_t vmLiveObjects();

/**
 * A refcounted backing store. `pages` is the mapped size; `resident`
 * counts pages with established content (what an eager fork would
 * have to copy); `data` holds the actual bytes when content matters
 * (OOL payloads, vm_write targets) and stays empty for accounting-
 * only image mappings.
 */
struct VmObject
{
    VmLiveTally liveTally;
    std::uint64_t pages = 0;
    std::uint64_t resident = 0;
    /** System-wide shared region (dyld shared cache): mapped as a
     *  shared submap, never COW-broken. */
    bool sharedRegion = false;
    Bytes data;

    std::uint64_t sizeBytes() const { return pages * kVmPageBytes; }

    /** Copy @p len bytes at @p offset into @p out (zero-fill past the
     *  established data). Caller guarantees the range is mapped. */
    void readAt(std::uint64_t offset, std::uint64_t len, Bytes *out) const;

    /** Establish content at @p offset, extending data and residency. */
    void writeAt(std::uint64_t offset, const Bytes &src);
};

using VmObjectPtr = std::shared_ptr<VmObject>;

/**
 * The name of a VmEntry: a view of characters that outlive every map
 * that can hold the entry. It is made only from a string literal
 * (static storage) or by VmSubsystem::intern (the subsystem's table,
 * kept for its whole lifetime), so a name that could dangle does not
 * compile. Copying one copies a pointer and a length.
 */
class VmName
{
  public:
    constexpr VmName() = default;

    template <std::size_t N>
    consteval VmName(const char (&literal)[N]) : s_(literal, N - 1)
    {}

    std::string_view view() const { return s_; }
    operator std::string_view() const { return s_; }

    friend bool
    operator==(VmName a, VmName b)
    {
        return a.s_ == b.s_;
    }

  private:
    friend class VmSubsystem;
    explicit VmName(std::string_view interned) : s_(interned) {}

    std::string_view s_;
};

/** One mapped range of a task's address space. */
struct VmEntry
{
    VmName name;
    std::uint64_t base = 0;  ///< start address (page aligned)
    std::uint64_t pages = 0; ///< mapped size
    /**
     * Backing store. Null for an image mapping (addMapping) until a
     * non-COW write, an OOL snapshot or the eager-fork oracle needs
     * one: until then all its pages are resident and read as zeros.
     */
    VmObjectPtr object;
    std::uint8_t prot = VM_PROT_RW;
    /** Writes must break to a private shadow page first. */
    bool cow = false;
    /** Shared submap: fork aliases it without the protect sweep and
     *  it never counts as private. */
    bool shared = false;
    /** Private copies of COW-broken pages (lazily created). */
    VmObjectPtr shadow;
    /** Page indices (entry-relative) broken into the shadow. */
    std::set<std::uint64_t> broken;

    std::uint64_t sizeBytes() const { return pages * kVmPageBytes; }
    bool
    contains(std::uint64_t addr) const
    {
        return addr >= base && addr < base + sizeBytes();
    }
};

/** System counters surfaced by /proc/cider/vm. */
struct VmStats
{
    std::uint64_t objectsCreated = 0;
    std::uint64_t cowFaults = 0;       ///< COW breaks taken
    std::uint64_t brokenPages = 0;     ///< pages privately copied
    std::uint64_t sharedRegionPages = 0;
    std::uint64_t cowForks = 0;
    std::uint64_t eagerForks = 0;
    /** OOL descriptors moved as VmObject references (no byte copy). */
    std::uint64_t oolZeroCopySends = 0;
    /** Inline bodies auto-promoted to OOL past the size threshold. */
    std::uint64_t oolPromotedBodies = 0;
    /** Bodies that stayed inline (copied per byte). */
    std::uint64_t inlineBodies = 0;
};

/**
 * System-wide VM state: the device profile's memory cost table, the
 * shared-region registry, the entry-name table and the counters. One
 * per kernel; MachIpc instances constructed standalone (unit tests)
 * fall back to a private instance over the Nexus 7 profile.
 */
class VmSubsystem
{
  public:
    /** @p profile null selects the Nexus 7 table. */
    explicit VmSubsystem(const hw::DeviceProfile *profile = nullptr);

    VmSubsystem(const VmSubsystem &) = delete;
    VmSubsystem &operator=(const VmSubsystem &) = delete;

    const hw::DeviceProfile &profile() const { return *profile_; }

    /** New backing store (bumps the object counter). */
    VmObjectPtr makeObject(std::uint64_t pages, std::uint64_t resident = 0);

    /** Wrap a payload into a fresh object without copying it. */
    VmObjectPtr wrapBytes(Bytes &&payload);

    /**
     * The system-wide shared region named @p name, created on first
     * use with @p pages pages (subsequent calls return the cached
     * object regardless of @p pages) — the dyld shared cache is
     * mapped once per system, not once per process.
     */
    VmObjectPtr sharedRegion(std::string_view name, std::uint64_t pages);

    /**
     * The entry name @p name, copied into this subsystem's table the
     * first time it is seen and kept for the subsystem's lifetime
     * (the table is bounded by the distinct names a kernel maps).
     * Every handle for one name views the same characters.
     */
    VmName intern(std::string_view name);

    /// @{ Cost helpers (virtual ns).
    /** Streaming copy of one page. */
    std::uint64_t pageCopyBytesNs() const;
    /** One COW break: the fault plus one page copied. */
    std::uint64_t cowFaultNs() const;
    /// @}

    /// @{ Counter updates (relaxed atomics, no lock).
    /** Count one object: made here, or stood for by an image mapping
     *  (addMapping makes none until one is needed). */
    void noteObjectCreated();
    void noteCowFault(std::uint64_t pages_broken);
    void noteFork(bool eager);
    void noteOolZeroCopy();
    void noteBodySend(bool promoted);
    /// @}

    VmStats statsSnapshot() const;

  private:
    /** VmStats as relaxed atomics: host-side tallies that order
     *  nothing, read field by field by statsSnapshot(). */
    struct Counters
    {
        std::atomic<std::uint64_t> objectsCreated{0};
        std::atomic<std::uint64_t> cowFaults{0};
        std::atomic<std::uint64_t> brokenPages{0};
        std::atomic<std::uint64_t> sharedRegionPages{0};
        std::atomic<std::uint64_t> cowForks{0};
        std::atomic<std::uint64_t> eagerForks{0};
        std::atomic<std::uint64_t> oolZeroCopySends{0};
        std::atomic<std::uint64_t> oolPromotedBodies{0};
        std::atomic<std::uint64_t> inlineBodies{0};
    };

    /** Transparent hash: intern() looks a view up without a copy. */
    struct NameHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    const hw::DeviceProfile *profile_;
    Counters counters_;
    /** Guards sharedRegions_ and names_ only. */
    std::mutex mu_;
    std::map<std::string, VmObjectPtr, std::less<>> sharedRegions_;
    /** Interned entry names; nodes never move, so views stay valid. */
    std::unordered_set<std::string, NameHash, std::equal_to<>> names_;
};

/**
 * A task's address space: the entry list, sorted by base address,
 * plus a bump address allocator. Replaces the old AddressSpace
 * struct; the legacy accounting surface (pages / privatePages /
 * addMapping / hasMapping / reset) is preserved so loaders and dyld
 * keep their call sites.
 *
 * Unbound maps (bare unit-test values) use a process-wide fallback
 * subsystem; Kernel::createProcess binds every process map to the
 * kernel's.
 */
class VmMap
{
  public:
    VmMap() = default;

    VmMap(const VmMap &) = delete;
    VmMap &operator=(const VmMap &) = delete;

    void bind(VmSubsystem *vm) { vm_ = vm; }
    VmSubsystem &vm() const;

    /// @{ Legacy accounting surface.
    std::uint64_t pages() const;
    /** Pages the fork protect sweep must touch (non-shared). */
    std::uint64_t privatePages() const;
    /**
     * Map an image of @p pages pages, all resident and holding no
     * bytes, with no backing object until one is needed (see
     * VmEntry::object). Charges nothing: loaders charge their own
     * link/IO costs. @return the base address of the new entry.
     */
    std::uint64_t addMapping(VmName name, std::uint64_t pages,
                             bool shared = false);
    bool hasMapping(std::string_view name) const;
    void reset();
    /// @}

    /// @{ vm_map surface.
    /**
     * Map @p object at a fresh base address.
     * @return the base address of the new entry.
     */
    std::uint64_t mapObject(VmName name, VmObjectPtr object,
                            std::uint8_t prot, bool cow, bool shared);

    /**
     * vm_allocate: anonymous zero-fill memory. Charges the allocation
     * setup cost; FaultRail site "vm.allocate".
     * @return base address, or 0 on (injected) shortage.
     */
    std::uint64_t allocate(VmName name, std::uint64_t pages);

    /** vm_deallocate: unmap the entry containing @p addr. */
    bool deallocate(std::uint64_t addr);

    /**
     * vm_write through the fault path: COW pages touched for the
     * first time break into the entry's private shadow (SchedRail
     * yield point + FaultRail site "vm.fault", pageFaultNs + one page
     * copy charged per break), then the bytes land.
     * @return 0 ok; -1 bad address/protection; -2 injected fault.
     */
    int write(std::uint64_t addr, const Bytes &src);

    /** vm_read: assemble @p len bytes at @p addr (shadow overlays
     *  object for broken pages). @return 0 ok, -1 bad address. */
    int read(std::uint64_t addr, std::uint64_t len, Bytes *out) const;

    /**
     * fork(): child construction from @p parent.
     *
     * COW mode aliases every private entry — both sides' entries go
     * copy-on-write against the shared object, and only the PTE
     * write-protect sweep is charged (profile pageCopyEntryNs per
     * private page, the same sweep a real COW fork pays) plus a small
     * per-entry alias cost; content copies are deferred to write
     * faults. Pages the parent had already broken are duplicated now
     * (one page copy each).
     *
     * Eager mode is the pre-VM baseline: page tables AND all resident
     * content are copied at fork time (pageCopyEntryNs per page plus
     * a page of stream-copy per resident page).
     */
    void forkFrom(VmMap &parent, bool eager);

    /**
     * OOL copyin: snapshot the entry containing @p addr into an
     * object reference. Zero-copy (the backing object itself) when no
     * pages were privately broken; otherwise a composed object with
     * the shadow overlaid (one page copy charged per broken page).
     * @p deallocate true unmaps the sender's entry (moved); false
     * keeps the sender's mapping and flips it COW so later sender
     * writes cannot reach the in-flight snapshot.
     * @return the snapshot, or null for an unmapped address.
     */
    VmObjectPtr snapshotForSend(std::uint64_t addr, bool deallocate);

    /// @{ Introspection.
    VmEntry *findByAddr(std::uint64_t addr);
    std::size_t entryCount() const;
    /** Copy of the entry table (for /proc/cider/vm and tests). */
    std::vector<VmEntry> entriesSnapshot() const;
    /// @}

  private:
    VmEntry *findByAddrLocked(std::uint64_t addr);
    /** Append an entry at the next base; requires mu_ held. */
    std::uint64_t insertLocked(VmName name, std::uint64_t pages,
                               VmObjectPtr object, std::uint8_t prot,
                               bool cow, bool shared);
    /** @p e's backing object, made (uncounted, @p e's pages resident,
     *  no bytes) if it has none yet; requires mu_ held. */
    VmObject &backingLocked(VmEntry &e);
    /** Break one COW page into the shadow; requires mu_ held. */
    void breakPageLocked(VmEntry &e, std::uint64_t page);

    VmSubsystem *vm_ = nullptr;
    mutable std::mutex mu_;
    std::vector<VmEntry> entries_;
    std::uint64_t nextBase_ = 0x100000000ull;
};

/** Text of /proc/cider/vm: system counters + per-process entry tables. */
std::string dumpVm(Kernel &kernel);

} // namespace cider::kernel

#endif // CIDER_KERNEL_VM_H
