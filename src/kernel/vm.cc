#include "kernel/vm.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "base/cost_clock.h"
#include "kernel/fault_rail.h"
#include "kernel/kernel.h"
#include "kernel/sched_rail.h"

namespace cider::kernel {

namespace {

/** Writing one new vm_map entry on fork/alias (list insert + bookkeeping). */
constexpr std::uint64_t kVmEntryAliasNs = 90;

/** vm_allocate setup: entry insert plus zero-fill reservation. */
constexpr std::uint64_t kVmAllocateNs = 600;

std::uint64_t
pageCount(std::uint64_t bytes)
{
    return (bytes + kVmPageBytes - 1) / kVmPageBytes;
}

void
bump(std::atomic<std::uint64_t> &counter, std::uint64_t n = 1)
{
    counter.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
load(const std::atomic<std::uint64_t> &counter)
{
    return counter.load(std::memory_order_relaxed);
}

/** Copy one page of @p src (zero-fill past its data) into @p dst. */
void
copyPage(const VmObject &src, VmObject &dst, std::uint64_t page)
{
    Bytes buf;
    src.readAt(page * kVmPageBytes, kVmPageBytes, &buf);
    dst.writeAt(page * kVmPageBytes, buf);
}

/**
 * The entry containing @p addr, or end(). Entries are sorted by base
 * and disjoint: the bump allocator only grows, and erase and fork
 * keep their order.
 */
template <typename Entries>
auto
findEntry(Entries &entries, std::uint64_t addr) -> decltype(entries.begin())
{
    auto it = std::upper_bound(
        entries.begin(), entries.end(), addr,
        [](std::uint64_t a, const VmEntry &e) { return a < e.base; });
    if (it == entries.begin() || !std::prev(it)->contains(addr))
        return entries.end();
    return std::prev(it);
}

} // namespace

// ---------------------------------------------------------------------------
// VmObject

namespace {
std::atomic<std::uint64_t> g_vmLiveObjects{0};
} // namespace

VmLiveTally::VmLiveTally() noexcept
{
    g_vmLiveObjects.fetch_add(1, std::memory_order_relaxed);
}

VmLiveTally::VmLiveTally(const VmLiveTally &) noexcept
{
    g_vmLiveObjects.fetch_add(1, std::memory_order_relaxed);
}

VmLiveTally::~VmLiveTally()
{
    g_vmLiveObjects.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t
vmLiveObjects()
{
    return g_vmLiveObjects.load(std::memory_order_relaxed);
}

void
VmObject::readAt(std::uint64_t offset, std::uint64_t len, Bytes *out) const
{
    out->clear();
    out->reserve(len);
    std::uint64_t have = data.size() > offset ? data.size() - offset : 0;
    std::uint64_t copy = std::min(len, have);
    out->insert(out->end(), data.begin() + static_cast<std::ptrdiff_t>(offset),
                data.begin() + static_cast<std::ptrdiff_t>(offset + copy));
    out->resize(len, 0); // zero-fill past established content
}

void
VmObject::writeAt(std::uint64_t offset, const Bytes &src)
{
    if (data.size() < offset + src.size())
        data.resize(offset + src.size(), 0);
    std::copy(src.begin(), src.end(),
              data.begin() + static_cast<std::ptrdiff_t>(offset));
    resident = std::max<std::uint64_t>(resident, pageCount(data.size()));
}

// ---------------------------------------------------------------------------
// VmSubsystem

VmSubsystem::VmSubsystem(const hw::DeviceProfile *profile)
    : profile_(profile ? profile : &hw::DeviceProfile::nexus7())
{}

VmObjectPtr
VmSubsystem::makeObject(std::uint64_t pages, std::uint64_t resident)
{
    auto obj = std::make_shared<VmObject>();
    obj->pages = pages;
    obj->resident = std::min(resident, pages);
    noteObjectCreated();
    return obj;
}

VmObjectPtr
VmSubsystem::wrapBytes(Bytes &&payload)
{
    std::uint64_t pages = pageCount(payload.size());
    auto obj = makeObject(pages, pages);
    obj->data = std::move(payload);
    return obj;
}

VmObjectPtr
VmSubsystem::sharedRegion(std::string_view name, std::uint64_t pages)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sharedRegions_.find(name);
    if (it != sharedRegions_.end())
        return it->second;
    auto obj = std::make_shared<VmObject>();
    obj->pages = pages;
    obj->resident = pages;
    obj->sharedRegion = true;
    noteObjectCreated();
    bump(counters_.sharedRegionPages, pages);
    sharedRegions_.emplace(name, obj);
    return obj;
}

VmName
VmSubsystem::intern(std::string_view name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = names_.find(name);
    if (it == names_.end())
        it = names_.emplace(name).first;
    return VmName(*it);
}

std::uint64_t
VmSubsystem::pageCopyBytesNs() const
{
    return kVmPageBytes * profile_->memWriteBytePs / 1000;
}

std::uint64_t
VmSubsystem::cowFaultNs() const
{
    return profile_->pageFaultNs + pageCopyBytesNs();
}

void
VmSubsystem::noteObjectCreated()
{
    bump(counters_.objectsCreated);
}

void
VmSubsystem::noteCowFault(std::uint64_t pages_broken)
{
    bump(counters_.cowFaults);
    bump(counters_.brokenPages, pages_broken);
}

void
VmSubsystem::noteFork(bool eager)
{
    bump(eager ? counters_.eagerForks : counters_.cowForks);
}

void
VmSubsystem::noteOolZeroCopy()
{
    bump(counters_.oolZeroCopySends);
}

void
VmSubsystem::noteBodySend(bool promoted)
{
    bump(promoted ? counters_.oolPromotedBodies : counters_.inlineBodies);
}

VmStats
VmSubsystem::statsSnapshot() const
{
    VmStats s;
    s.objectsCreated = load(counters_.objectsCreated);
    s.cowFaults = load(counters_.cowFaults);
    s.brokenPages = load(counters_.brokenPages);
    s.sharedRegionPages = load(counters_.sharedRegionPages);
    s.cowForks = load(counters_.cowForks);
    s.eagerForks = load(counters_.eagerForks);
    s.oolZeroCopySends = load(counters_.oolZeroCopySends);
    s.oolPromotedBodies = load(counters_.oolPromotedBodies);
    s.inlineBodies = load(counters_.inlineBodies);
    return s;
}

// ---------------------------------------------------------------------------
// VmMap

VmSubsystem &
VmMap::vm() const
{
    if (vm_)
        return *vm_;
    /** Fallback for maps never bound to a kernel (bare unit-test
     *  values, standalone MachIpc instances). */
    static VmSubsystem fallback;
    return fallback;
}

std::uint64_t
VmMap::pages() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t total = 0;
    for (const VmEntry &e : entries_)
        total += e.pages;
    return total;
}

std::uint64_t
VmMap::privatePages() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::uint64_t total = 0;
    for (const VmEntry &e : entries_)
        if (!e.shared)
            total += e.pages;
    return total;
}

std::uint64_t
VmMap::addMapping(VmName name, std::uint64_t pages, bool shared)
{
    // Legacy loader surface: image segments arrive fully resident (an
    // eager fork would have to copy their contents). The object they
    // stand for is counted now and made only when needed; nothing can
    // tell the difference, since its pages hold no bytes.
    vm().noteObjectCreated();
    std::lock_guard<std::mutex> lk(mu_);
    return insertLocked(name, pages, nullptr, VM_PROT_RW, /*cow=*/false,
                        shared);
}

bool
VmMap::hasMapping(std::string_view name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const VmEntry &e : entries_)
        if (e.name.view() == name)
            return true;
    return false;
}

void
VmMap::reset()
{
    std::lock_guard<std::mutex> lk(mu_);
    entries_.clear();
    nextBase_ = 0x100000000ull;
}

std::uint64_t
VmMap::mapObject(VmName name, VmObjectPtr object, std::uint8_t prot,
                 bool cow, bool shared)
{
    std::uint64_t pages = object ? object->pages : 0;
    std::lock_guard<std::mutex> lk(mu_);
    return insertLocked(name, pages, std::move(object), prot, cow, shared);
}

std::uint64_t
VmMap::insertLocked(VmName name, std::uint64_t pages, VmObjectPtr object,
                    std::uint8_t prot, bool cow, bool shared)
{
    VmEntry &e = entries_.emplace_back();
    e.name = name;
    e.base = nextBase_;
    e.pages = pages;
    e.object = std::move(object);
    e.prot = prot;
    e.cow = cow;
    e.shared = shared;
    nextBase_ += std::max<std::uint64_t>(pages, 1) * kVmPageBytes;
    return e.base;
}

VmObject &
VmMap::backingLocked(VmEntry &e)
{
    if (!e.object) {
        // Host-only: the object addMapping counted when it mapped e.
        e.object = std::make_shared<VmObject>();
        e.object->pages = e.pages;
        e.object->resident = e.pages;
    }
    return *e.object;
}

std::uint64_t
VmMap::allocate(VmName name, std::uint64_t pages)
{
    if (CIDER_FAULT_POINT("vm.allocate"))
        return 0; // injected resource shortage
    charge(kVmAllocateNs);
    VmObjectPtr obj = vm().makeObject(pages, /*resident=*/0);
    return mapObject(name, std::move(obj), VM_PROT_RW, /*cow=*/false,
                     /*shared=*/false);
}

bool
VmMap::deallocate(std::uint64_t addr)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = findEntry(entries_, addr);
    if (it == entries_.end())
        return false;
    entries_.erase(it);
    return true;
}

void
VmMap::breakPageLocked(VmEntry &e, std::uint64_t page)
{
    if (!e.shadow)
        e.shadow = vm().makeObject(e.pages, 0);
    if (e.object)
        copyPage(*e.object, *e.shadow, page);
    else // no backing: the page is zeros
        e.shadow->writeAt(page * kVmPageBytes, Bytes(kVmPageBytes, 0));
    vm().noteCowFault(1);
}

int
VmMap::write(std::uint64_t addr, const Bytes &src)
{
    std::uint64_t len = src.size();
    std::unique_lock<std::mutex> lk(mu_);
    VmEntry *e = findByAddrLocked(addr);
    if (!e || addr + len > e->base + e->sizeBytes())
        return -1;
    if (!(e->prot & VM_PROT_WRITE))
        return -1;

    if (len == 0)
        return 0;

    std::uint64_t first = (addr - e->base) / kVmPageBytes;
    std::uint64_t last = (addr + len - 1 - e->base) / kVmPageBytes;
    if (e->cow) {
        for (std::uint64_t p = first; p <= last; ++p) {
            if (e->broken.count(p))
                continue;
            // The fault is taken with the map unlocked: SchedRail may
            // interleave another guest here (e.g. an OOL copyin racing
            // this writer), and the entry must be revalidated after.
            lk.unlock();
            CIDER_SCHED_POINT("vm.fault");
            if (CIDER_FAULT_POINT("vm.fault"))
                return -2; // injected paging error
            charge(vm().cowFaultNs());
            lk.lock();
            e = findByAddrLocked(addr);
            if (!e || addr + len > e->base + e->sizeBytes() ||
                !(e->prot & VM_PROT_WRITE))
                return -1;
            if (!e->cow)
                break; // entry lost its COW state while unlocked
            if (e->broken.insert(p).second)
                breakPageLocked(*e, p);
        }
    }

    charge(len * vm().profile().memWriteBytePs / 1000);
    std::uint64_t off = addr - e->base;
    if (e->cow)
        e->shadow->writeAt(off, src);
    else
        backingLocked(*e).writeAt(off, src);
    return 0;
}

int
VmMap::read(std::uint64_t addr, std::uint64_t len, Bytes *out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = findEntry(entries_, addr);
    if (it == entries_.end() || addr + len > it->base + it->sizeBytes())
        return -1;
    const VmEntry *e = &*it;
    charge(len * vm().profile().memReadBytePs / 1000);
    out->clear();
    if (len == 0)
        return 0;

    // Assemble page by page: broken pages come from the shadow.
    std::uint64_t off = addr - e->base;
    std::uint64_t done = 0;
    Bytes chunk;
    while (done < len) {
        std::uint64_t cur = off + done;
        std::uint64_t page = cur / kVmPageBytes;
        std::uint64_t in_page = cur % kVmPageBytes;
        std::uint64_t take = std::min(len - done, kVmPageBytes - in_page);
        const VmObject *src = (e->cow && e->broken.count(page))
                                  ? e->shadow.get()
                                  : e->object.get();
        if (src)
            src->readAt(cur, take, &chunk);
        else
            chunk.assign(take, 0); // no backing: a zero page
        out->insert(out->end(), chunk.begin(), chunk.end());
        done += take;
    }
    return 0;
}

void
VmMap::forkFrom(VmMap &parent, bool eager)
{
    std::scoped_lock lk(parent.mu_, mu_);
    if (parent.vm_)
        vm_ = parent.vm_;
    nextBase_ = parent.nextBase_;
    entries_.clear();
    entries_.reserve(parent.entries_.size());

    for (VmEntry &pe : parent.entries_) {
        if (pe.shared) {
            // Shared submaps (dyld shared cache) alias for free: no
            // protect sweep, one entry write.
            charge(kVmEntryAliasNs);
            entries_.push_back(pe);
            continue;
        }

        if (eager) {
            // Pre-VM baseline: copy the page tables AND all resident
            // content at fork time.
            const VmObject &obj = parent.backingLocked(pe);
            std::uint64_t res = std::min(obj.resident, pe.pages);
            charge(pe.pages * vm().profile().pageCopyEntryNs +
                   res * vm().pageCopyBytesNs());
            VmObjectPtr copy = vm().makeObject(pe.pages, res);
            copy->data = obj.data;
            // Broken pages live in the shadow; fold them in.
            for (std::uint64_t p : pe.broken)
                copyPage(*pe.shadow, *copy, p);
            VmEntry ce = pe;
            ce.object = std::move(copy);
            ce.cow = false;
            ce.shadow.reset();
            ce.broken.clear();
            entries_.push_back(std::move(ce));
            continue;
        }

        // COW: both sides alias the backing object (an image mapping
        // with none stays without one on both sides); only the PTE
        // write-protect sweep is charged (a real COW fork pays the
        // same walk), content copies wait for write faults.
        charge(kVmEntryAliasNs +
               pe.pages * vm().profile().pageCopyEntryNs);
        VmEntry ce = pe;
        ce.cow = true;
        pe.cow = true;
        if (pe.shadow) {
            // Pages the parent had already privately broken are
            // duplicated now — they are not in the shared object.
            charge(pe.broken.size() * vm().pageCopyBytesNs());
            VmObjectPtr dup = vm().makeObject(pe.shadow->pages, 0);
            for (std::uint64_t p : pe.broken)
                copyPage(*pe.shadow, *dup, p);
            ce.shadow = std::move(dup);
        }
        entries_.push_back(std::move(ce));
    }

    vm().noteFork(eager);
}

VmObjectPtr
VmMap::snapshotForSend(std::uint64_t addr, bool deallocate)
{
    // In-flight OOL vs concurrent writer is a real interleaving; give
    // armed schedules a decision point before the copyin commits.
    CIDER_SCHED_POINT("vm.oolCopyin");

    std::lock_guard<std::mutex> lk(mu_);
    auto it = findEntry(entries_, addr);
    if (it == entries_.end())
        return nullptr;
    VmEntry *e = &*it;
    backingLocked(*e);

    VmObjectPtr snap;
    if (e->broken.empty()) {
        // No privately broken pages: the backing object itself IS the
        // snapshot (writers on COW entries never touch it).
        snap = e->object;
        vm().noteOolZeroCopy();
    } else {
        // Compose object + shadow overlay into a stable snapshot.
        charge(e->broken.size() * vm().pageCopyBytesNs());
        snap = vm().makeObject(e->pages, e->object->resident);
        snap->data = e->object->data;
        for (std::uint64_t p : e->broken)
            copyPage(*e->shadow, *snap, p);
    }

    if (deallocate) {
        // Moved: the sender loses its mapping.
        entries_.erase(it);
    } else {
        // Copied: the sender keeps the mapping, but it goes COW so
        // later sender writes cannot reach the in-flight snapshot.
        if (snap == e->object) {
            e->cow = true;
        } else {
            // Snapshot already diverged (shadow overlay); the sender
            // keeps writing through its own shadow as before.
        }
    }
    return snap;
}

VmEntry *
VmMap::findByAddr(std::uint64_t addr)
{
    std::lock_guard<std::mutex> lk(mu_);
    return findByAddrLocked(addr);
}

VmEntry *
VmMap::findByAddrLocked(std::uint64_t addr)
{
    auto it = findEntry(entries_, addr);
    return it == entries_.end() ? nullptr : &*it;
}

std::size_t
VmMap::entryCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

std::vector<VmEntry>
VmMap::entriesSnapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_;
}

// ---------------------------------------------------------------------------
// /proc/cider/vm

std::string
dumpVm(Kernel &kernel)
{
    std::ostringstream os;
    VmStats s = kernel.vm().statsSnapshot();
    os << "vm objects_created=" << s.objectsCreated
       << " cow_faults=" << s.cowFaults
       << " broken_pages=" << s.brokenPages
       << " shared_region_pages=" << s.sharedRegionPages << "\n"
       << "   forks cow=" << s.cowForks << " eager=" << s.eagerForks << "\n"
       << "   ool zero_copy_sends=" << s.oolZeroCopySends
       << " promoted_bodies=" << s.oolPromotedBodies
       << " inline_bodies=" << s.inlineBodies << "\n";

    kernel.forEachProcess([&os](Process &p) {
        os << "pid " << p.pid() << " (" << p.name()
           << "): " << p.mem().entryCount() << " entries, "
           << p.mem().pages() << " pages ("
           << p.mem().privatePages() << " private)\n";
        for (const VmEntry &e : p.mem().entriesSnapshot()) {
            os << "  " << std::hex << e.base << std::dec << " +" << e.pages
               << "p " << e.name.view() << " prot="
               << (e.prot & VM_PROT_READ ? "r" : "-")
               << (e.prot & VM_PROT_WRITE ? "w" : "-")
               << (e.cow ? " cow" : "") << (e.shared ? " shared" : "");
            if (!e.broken.empty())
                os << " broken=" << e.broken.size();
            os << "\n";
        }
    });
    return os.str();
}

} // namespace cider::kernel
