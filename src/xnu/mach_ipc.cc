#include "xnu/mach_ipc.h"

#include <algorithm>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/fault_rail.h"
#include "kernel/sched_rail.h"

namespace cider::xnu {

namespace {

// Message-path costs (virtual ns) on top of the duct-taped primitive
// costs. Inline bodies are copied (per byte); OOL regions are moved
// zero-copy (per descriptor).
constexpr std::uint64_t kMsgBaseNs = 350;
constexpr std::uint64_t kMsgPerRightNs = 120;
constexpr std::uint64_t kMsgPerOolNs = 180;
/** Installing one vm_map entry in the receiver for a mapped-in OOL
 *  region (COW alias; the fault cost lands on first write). */
constexpr std::uint64_t kMsgOolMapNs = 140;

std::uint64_t
bodyCopyNs(std::size_t bytes)
{
    return bytes / 4; // ~0.25 ns per byte copied
}

} // namespace

/**
 * Fixed-capacity FIFO ring of in-flight messages. The qlimit slots
 * are allocated once on first use; after that, message payloads move
 * in and out of the slots and the ring itself never allocates —
 * receive-side buffer reuse is what makes the steady-state
 * send/receive cycle heap-free.
 */
class KMsgRing
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** Caller guarantees size() < capacity (qlimit back-pressure). */
    void
    push(MachIpc::KMsg &&kmsg, std::size_t capacity)
    {
        if (slots_.empty())
            slots_.resize(capacity);
        slots_[(head_ + count_) % slots_.size()] = std::move(kmsg);
        ++count_;
    }

    MachIpc::KMsg
    pop()
    {
        MachIpc::KMsg out = std::move(slots_[head_]);
        head_ = (head_ + 1) % slots_.size();
        --count_;
        return out;
    }

    /** i-th queued message, 0 = front (for teardown walks). */
    MachIpc::KMsg &
    at(std::size_t i)
    {
        return slots_[(head_ + i) % slots_.size()];
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < count_; ++i)
            at(i) = MachIpc::KMsg{};
        head_ = 0;
        count_ = 0;
    }

  private:
    std::vector<MachIpc::KMsg> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/**
 * The in-kernel port object. The message queue is a flat FIFO ring:
 * the recursive queuing of the original XNU sources is disallowed in
 * the domestic kernel, so this part was rewritten (paper section
 * 4.2).
 */
class IpcPort
{
  public:
    explicit IpcPort(bool is_set)
        : lock(ducttape::lck_mtx_alloc_init(is_set ? "ipc.portset"
                                                   : "ipc.port")),
          wq(ducttape::waitq_alloc()), isSet(is_set)
    {}

    ~IpcPort()
    {
        ducttape::lck_mtx_free(lock);
        ducttape::waitq_free(wq);
    }

    IpcPort(const IpcPort &) = delete;
    IpcPort &operator=(const IpcPort &) = delete;

    ducttape::LckMtx *lock;
    ducttape::WaitQ *wq;
    const bool isSet;
    bool active = true;
    std::size_t qlimit = 16;
    KMsgRing queue;

    /** Set membership (a port belongs to at most one set). */
    std::weak_ptr<IpcPort> memberOf;
    /** Members, when this port is a set. */
    std::vector<std::weak_ptr<IpcPort>> members;

    /** Pending dead-name notification requests: (notify port, name
     *  the requester holds). */
    std::vector<std::pair<PortPtr, mach_port_name_t>> deadNameRequests;
};

IpcSpace::IpcSpace() : lock_(ducttape::lck_mtx_alloc_init("ipc.space")) {}

IpcSpace::~IpcSpace()
{
    ducttape::lck_mtx_free(lock_);
}

std::size_t
IpcSpace::entryCount() const
{
    ducttape::lck_mtx_lock(lock_);
    std::size_t n = liveCount_;
    ducttape::lck_mtx_unlock(lock_);
    return n;
}

IpcEntry *
IpcSpace::lookupEntry(mach_port_name_t name)
{
    if ((name & 0x3) != 0x3)
        return nullptr;
    std::uint32_t index = name >> 8;
    if (index == 0)
        return nullptr;
    --index;
    if (index >= slots_.size())
        return nullptr;
    Slot &slot = slots_[index];
    if (!slot.occupied || makeName(index, slot.gen) != name)
        return nullptr;
    return &slot.entry;
}

mach_port_name_t
IpcSpace::allocEntry(IpcEntry &&entry)
{
    std::uint32_t index;
    if (freeHead_ < freeSlots_.size()) {
        index = freeSlots_[freeHead_++];
        if (freeHead_ == freeSlots_.size()) {
            freeSlots_.clear();
            freeHead_ = 0;
        }
    } else {
        if (slots_.size() > kMaxIndex)
            return MACH_PORT_NULL; // name space exhausted
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &slot = slots_[index];
    slot.entry = std::move(entry);
    slot.occupied = true;
    ++liveCount_;
    return makeName(index, slot.gen);
}

void
IpcSpace::releaseEntry(mach_port_name_t name)
{
    std::uint32_t index = (name >> 8) - 1;
    Slot &slot = slots_[index];
    slot.entry = IpcEntry{};
    slot.occupied = false;
    slot.gen = (slot.gen + 1) & kGenMask;
    freeSlots_.push_back(index);
    --liveCount_;
}

MachIpc::MachIpc()
    : portZone_(ducttape::zinit(256, "ipc.ports"),
                [](ducttape::ZoneT *z) { ducttape::zdestroy(z); }),
      spaceZone_(ducttape::zinit(128, "ipc.spaces")),
      statsLock_(ducttape::lck_mtx_alloc_init("ipc.stats"))
{}

MachIpc::~MachIpc()
{
    ducttape::lck_mtx_free(statsLock_);
    ducttape::zdestroy(spaceZone_);
}

SpacePtr
MachIpc::createSpace()
{
    void *acct = ducttape::zalloc(spaceZone_);
    if (acct)
        ducttape::zfree(spaceZone_, acct); // accounting touch only
    return std::make_shared<IpcSpace>();
}

PortPtr
MachIpc::makePort(bool is_set)
{
    // Ports are accounted in a zalloc zone exactly as XNU does; the
    // zone can be armed with failure injection in tests. The deleter
    // captures the zone's shared handle so slabs stay valid however
    // long the port lives.
    if (CIDER_FAULT_POINT("mach.port.alloc"))
        return nullptr;
    void *mem = ducttape::zalloc(portZone_.get());
    if (!mem)
        return nullptr;
    auto port = std::shared_ptr<IpcPort>(
        new IpcPort(is_set), [zone = portZone_, mem](IpcPort *p) {
            ducttape::zfree(zone.get(), mem);
            delete p;
        });
    ducttape::lck_mtx_lock(statsLock_);
    ++stats_.portsAllocated;
    ducttape::lck_mtx_unlock(statsLock_);
    return port;
}

kern_return_t
MachIpc::portAllocate(IpcSpace &space, PortRight right,
                      mach_port_name_t *out_name)
{
    if (right != PortRight::Receive && right != PortRight::PortSet)
        return KERN_INVALID_VALUE;
    PortPtr port = makePort(right == PortRight::PortSet);
    if (!port)
        return KERN_RESOURCE_SHORTAGE;

    IpcEntry entry;
    entry.port = port;
    entry.hasReceive = (right == PortRight::Receive);
    entry.isPortSet = (right == PortRight::PortSet);
    if (CIDER_FAULT_POINT("mach.name.alloc"))
        return KERN_RESOURCE_SHORTAGE;
    ducttape::lck_mtx_lock(space.lock_);
    mach_port_name_t name = space.allocEntry(std::move(entry));
    ducttape::lck_mtx_unlock(space.lock_);
    if (name == MACH_PORT_NULL)
        return KERN_RESOURCE_SHORTAGE;

    *out_name = name;
    return KERN_SUCCESS;
}

void
MachIpc::sendDeadNameNotification(const PortPtr &notify_port,
                                  mach_port_name_t dead_name)
{
    KMsg note;
    note.msgId = MACH_NOTIFY_DEAD_NAME;
    ByteWriter w;
    w.u32(dead_name);
    note.body = w.take();
    if (enqueue(notify_port, std::move(note)) == KERN_SUCCESS) {
        ducttape::lck_mtx_lock(statsLock_);
        ++stats_.notificationsSent;
        ducttape::lck_mtx_unlock(statsLock_);
    }
}

void
MachIpc::destroyKMsgRights(KMsg &kmsg)
{
    kmsg.reply.port.reset();
    kmsg.ports.clear();
    kmsg.ool.clear();
    kmsg.bodyObject.reset();
}

kernel::VmSubsystem &
MachIpc::vm() const
{
    if (vm_)
        return *vm_;
    // Standalone instances (unit tests, benches without a kernel)
    // account against a private subsystem over the default profile.
    static kernel::VmSubsystem fallback;
    return fallback;
}

std::uint64_t
MachIpc::oolPromoteThreshold() const
{
    if (promoteOverride_ >= 0)
        return static_cast<std::uint64_t>(promoteOverride_);
    // Promotion pays one descriptor hop per side plus the receiver's
    // map-in fault; inline pays a body copy per side. Break even at
    // bytes/4 * 2 == 2 * kMsgPerOolNs + pageFaultNs.
    return 2 * (2 * kMsgPerOolNs + vm().profile().pageFaultNs);
}

kern_return_t
MachIpc::makeOolFromRegion(kernel::VmMap &map, std::uint64_t addr,
                           bool deallocate, OolDescriptor *out)
{
    kernel::VmObjectPtr snap = map.snapshotForSend(addr, deallocate);
    if (!snap)
        return KERN_INVALID_ADDRESS;
    out->data.clear();
    out->object = std::move(snap);
    out->deallocate = deallocate;
    return KERN_SUCCESS;
}

void
MachIpc::markPortDead(const PortPtr &port)
{
    std::vector<std::pair<PortPtr, mach_port_name_t>> notify;
    {
        ducttape::lck_mtx_lock(port->lock);
        port->active = false;
        for (std::size_t i = 0; i < port->queue.size(); ++i)
            destroyKMsgRights(port->queue.at(i));
        port->queue.clear();
        notify.swap(port->deadNameRequests);
        ducttape::waitq_wakeup_all(port->wq);
        ducttape::lck_mtx_unlock(port->lock);
    }
    if (PortPtr set = port->memberOf.lock()) {
        ducttape::lck_mtx_lock(set->lock);
        ducttape::waitq_wakeup_all(set->wq);
        ducttape::lck_mtx_unlock(set->lock);
    }
    for (auto &[notify_port, name] : notify)
        sendDeadNameNotification(notify_port, name);

    ducttape::lck_mtx_lock(statsLock_);
    ++stats_.portsDestroyed;
    ducttape::lck_mtx_unlock(statsLock_);
}

kern_return_t
MachIpc::portDestroy(IpcSpace &space, mach_port_name_t name)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *e = space.lookupEntry(name);
    if (!e) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    IpcEntry entry = std::move(*e);
    space.releaseEntry(name);
    ducttape::lck_mtx_unlock(space.lock_);

    if (entry.port && (entry.hasReceive || entry.isPortSet))
        markPortDead(entry.port);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::portDeallocate(IpcSpace &space, mach_port_name_t name)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *entry = space.lookupEntry(name);
    if (!entry) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    if (entry->sendOnceRefs > 0) {
        --entry->sendOnceRefs;
    } else if (entry->sendRefs > 0) {
        --entry->sendRefs;
    } else if (entry->deadName) {
        entry->deadName = false;
    } else {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_RIGHT;
    }
    if (entry->empty())
        space.releaseEntry(name);
    ducttape::lck_mtx_unlock(space.lock_);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::portInsertRight(IpcSpace &space, mach_port_name_t name,
                         MsgDisposition disposition)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *entry = space.lookupEntry(name);
    if (!entry) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    if (!entry->hasReceive) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_RIGHT;
    }
    kern_return_t kr = KERN_SUCCESS;
    switch (disposition) {
      case MsgDisposition::MakeSend:
        ++entry->sendRefs;
        break;
      case MsgDisposition::MakeSendOnce:
        ++entry->sendOnceRefs;
        break;
      default:
        kr = KERN_INVALID_VALUE;
        break;
    }
    ducttape::lck_mtx_unlock(space.lock_);
    return kr;
}

kern_return_t
MachIpc::portSetInsert(IpcSpace &space, mach_port_name_t set_name,
                       mach_port_name_t member_name)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *se = space.lookupEntry(set_name);
    IpcEntry *me = space.lookupEntry(member_name);
    if (!se || !me) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    if (!se->isPortSet || !me->hasReceive) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_RIGHT;
    }
    PortPtr set = se->port;
    PortPtr member = me->port;
    ducttape::lck_mtx_unlock(space.lock_);

    ducttape::lck_mtx_lock(set->lock);
    set->members.push_back(member);
    ducttape::lck_mtx_unlock(set->lock);
    member->memberOf = set;
    ducttape::waitq_wakeup_all(set->wq);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::portSetRemove(IpcSpace &space, mach_port_name_t member_name)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *me = space.lookupEntry(member_name);
    if (!me) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    PortPtr member = me->port;
    ducttape::lck_mtx_unlock(space.lock_);

    PortPtr set = member->memberOf.lock();
    if (!set)
        return KERN_NOT_IN_SET;
    ducttape::lck_mtx_lock(set->lock);
    std::erase_if(set->members, [&](const std::weak_ptr<IpcPort> &w) {
        PortPtr p = w.lock();
        return !p || p == member;
    });
    ducttape::lck_mtx_unlock(set->lock);
    member->memberOf.reset();
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::requestDeadNameNotification(IpcSpace &space,
                                     mach_port_name_t name,
                                     mach_port_name_t notify_name)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *e = space.lookupEntry(name);
    IpcEntry *ne = space.lookupEntry(notify_name);
    if (!e || !ne) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    PortPtr port = e->port;
    PortPtr notify = ne->port;
    if (!ne->hasReceive) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_CAPABILITY;
    }
    ducttape::lck_mtx_unlock(space.lock_);

    ducttape::lck_mtx_lock(port->lock);
    bool dead = !port->active;
    if (!dead)
        port->deadNameRequests.emplace_back(notify, name);
    ducttape::lck_mtx_unlock(port->lock);

    if (dead)
        sendDeadNameNotification(notify, name);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::portRights(IpcSpace &space, mach_port_name_t name, IpcEntry *out)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *entry = space.lookupEntry(name);
    if (!entry) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    // Lazily reflect port death as a dead name, as Mach does.
    if (entry->port && !entry->port->active && !entry->isPortSet) {
        entry->deadName = true;
        entry->hasReceive = false;
        entry->sendRefs = 0;
        entry->sendOnceRefs = 0;
    }
    *out = *entry;
    ducttape::lck_mtx_unlock(space.lock_);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::copyinRight(IpcSpace &space, mach_port_name_t name,
                     MsgDisposition disposition, KMsgRight *out)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *ep = space.lookupEntry(name);
    if (!ep) {
        ducttape::lck_mtx_unlock(space.lock_);
        return MACH_SEND_INVALID_RIGHT;
    }
    IpcEntry &entry = *ep;
    if (!entry.port || !entry.port->active) {
        entry.deadName = true;
        ducttape::lck_mtx_unlock(space.lock_);
        return MACH_SEND_INVALID_DEST;
    }

    kern_return_t kr = KERN_SUCCESS;
    out->port = entry.port;
    switch (disposition) {
      case MsgDisposition::CopySend:
        if (entry.sendRefs == 0)
            kr = MACH_SEND_INVALID_RIGHT;
        out->disposition = MsgDisposition::MoveSend;
        break;
      case MsgDisposition::MoveSend:
        if (entry.sendRefs == 0)
            kr = MACH_SEND_INVALID_RIGHT;
        else
            --entry.sendRefs;
        out->disposition = MsgDisposition::MoveSend;
        break;
      case MsgDisposition::MakeSend:
        if (!entry.hasReceive)
            kr = MACH_SEND_INVALID_RIGHT;
        out->disposition = MsgDisposition::MoveSend;
        break;
      case MsgDisposition::MakeSendOnce:
        if (!entry.hasReceive)
            kr = MACH_SEND_INVALID_RIGHT;
        out->disposition = MsgDisposition::MoveSendOnce;
        break;
      case MsgDisposition::MoveSendOnce:
        if (entry.sendOnceRefs == 0)
            kr = MACH_SEND_INVALID_RIGHT;
        else
            --entry.sendOnceRefs;
        out->disposition = MsgDisposition::MoveSendOnce;
        break;
      case MsgDisposition::MoveReceive:
        if (!entry.hasReceive)
            kr = MACH_SEND_INVALID_RIGHT;
        else
            entry.hasReceive = false;
        out->disposition = MsgDisposition::MoveReceive;
        break;
      default:
        kr = KERN_INVALID_VALUE;
        break;
    }
    if (kr == KERN_SUCCESS && entry.empty())
        space.releaseEntry(name);
    ducttape::lck_mtx_unlock(space.lock_);
    if (kr != KERN_SUCCESS)
        out->port.reset();
    return kr;
}

mach_port_name_t
MachIpc::copyoutRight(IpcSpace &space, const KMsgRight &right)
{
    if (!right.port)
        return MACH_PORT_NULL;
    if (CIDER_FAULT_POINT("mach.right.copyout"))
        return MACH_PORT_NULL;

    ducttape::lck_mtx_lock(space.lock_);
    // Send rights to the same port coalesce under one name, as in
    // Mach; send-once and receive rights get fresh names. The slot
    // scan runs in allocation order over a dense array — the same
    // visit order the old name-sorted map gave.
    mach_port_name_t name = MACH_PORT_NULL;
    if (right.disposition == MsgDisposition::MoveSend) {
        for (std::uint32_t i = 0; i < space.slots_.size(); ++i) {
            const IpcSpace::Slot &slot = space.slots_[i];
            if (slot.occupied && slot.entry.port == right.port &&
                !slot.entry.isPortSet) {
                name = IpcSpace::makeName(i, slot.gen);
                break;
            }
        }
    }
    if (name == MACH_PORT_NULL) {
        IpcEntry fresh;
        fresh.port = right.port;
        name = space.allocEntry(std::move(fresh));
        if (name == MACH_PORT_NULL) {
            ducttape::lck_mtx_unlock(space.lock_);
            return MACH_PORT_NULL; // name space exhausted
        }
    }
    IpcEntry &entry = *space.lookupEntry(name);
    bool dead = !right.port->active;
    if (dead) {
        entry.deadName = true;
    } else {
        switch (right.disposition) {
          case MsgDisposition::MoveSend:
            ++entry.sendRefs;
            break;
          case MsgDisposition::MoveSendOnce:
            ++entry.sendOnceRefs;
            break;
          case MsgDisposition::MoveReceive:
            entry.hasReceive = true;
            break;
          default:
            break;
        }
    }
    ducttape::lck_mtx_unlock(space.lock_);
    return name;
}

kern_return_t
MachIpc::enqueue(const PortPtr &port, KMsg &&kmsg, const SendOptions &opts)
{
    CIDER_SCHED_POINT("mach.enqueue");
    ducttape::lck_mtx_lock(port->lock);
    auto room = [&] {
        return !port->active || port->queue.size() < port->qlimit;
    };
    if (opts.hasTimeout) {
        std::uint64_t deadline = virtualNow() + opts.timeoutNs;
        if (!room() &&
            !ducttape::waitq_wait_deadline(port->wq, port->lock, room,
                                           deadline, "mach.send.qfull")) {
            ducttape::lck_mtx_unlock(port->lock);
            KMsg timed = std::move(kmsg);
            destroyKMsgRights(timed);
            return MACH_SEND_TIMED_OUT;
        }
    } else {
        while (port->active && port->queue.size() >= port->qlimit)
            ducttape::waitq_wait(port->wq, port->lock, room,
                                 "mach.send.qfull");
    }
    if (!port->active) {
        ducttape::lck_mtx_unlock(port->lock);
        KMsg dead = std::move(kmsg);
        destroyKMsgRights(dead);
        return MACH_SEND_INVALID_DEST;
    }
    port->queue.push(std::move(kmsg), port->qlimit);
    ducttape::waitq_wakeup_all(port->wq);
    ducttape::lck_mtx_unlock(port->lock);

    if (PortPtr set = port->memberOf.lock()) {
        // Hold the set lock across the wakeup so a concurrent set
        // receive cannot miss the state change between its predicate
        // check and its park.
        ducttape::lck_mtx_lock(set->lock);
        ducttape::waitq_wakeup_all(set->wq);
        ducttape::lck_mtx_unlock(set->lock);
    }
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::dequeue(const PortPtr &port, const RcvOptions &opts, KMsg *out)
{
    CIDER_SCHED_POINT("mach.dequeue");
    // Timed receives resolve their deadline once, against the
    // receiver's virtual clock at entry.
    std::uint64_t deadline =
        opts.hasTimeout ? virtualNow() + opts.timeoutNs : 0;

    if (!port->isSet) {
        ducttape::lck_mtx_lock(port->lock);
        auto ready = [&] {
            return !port->active || !port->queue.empty();
        };
        if (port->active && port->queue.empty()) {
            if (opts.nonblocking) {
                ducttape::lck_mtx_unlock(port->lock);
                return MACH_RCV_TIMED_OUT;
            }
            if (opts.hasTimeout) {
                if (!ducttape::waitq_wait_deadline(port->wq, port->lock,
                                                   ready, deadline,
                                                   "mach.rcv")) {
                    ducttape::lck_mtx_unlock(port->lock);
                    return MACH_RCV_TIMED_OUT;
                }
            } else {
                while (port->active && port->queue.empty())
                    ducttape::waitq_wait(port->wq, port->lock, ready,
                                         "mach.rcv");
            }
        }
        if (port->queue.empty()) {
            ducttape::lck_mtx_unlock(port->lock);
            return MACH_RCV_PORT_DIED;
        }
        *out = port->queue.pop();
        ducttape::waitq_wakeup_all(port->wq); // senders waiting on room
        ducttape::lck_mtx_unlock(port->lock);
        return KERN_SUCCESS;
    }

    // Port-set receive: scan members; park on the set's wait queue
    // when all are empty.
    ducttape::lck_mtx_lock(port->lock);
    for (;;) {
        if (!port->active) {
            ducttape::lck_mtx_unlock(port->lock);
            return MACH_RCV_PORT_DIED;
        }
        for (auto &weak : port->members) {
            PortPtr member = weak.lock();
            if (!member)
                continue;
            ducttape::lck_mtx_lock(member->lock);
            if (!member->queue.empty()) {
                *out = member->queue.pop();
                ducttape::waitq_wakeup_all(member->wq);
                ducttape::lck_mtx_unlock(member->lock);
                ducttape::lck_mtx_unlock(port->lock);
                return KERN_SUCCESS;
            }
            ducttape::lck_mtx_unlock(member->lock);
        }
        if (opts.nonblocking) {
            ducttape::lck_mtx_unlock(port->lock);
            return MACH_RCV_TIMED_OUT;
        }
        // Park until any member (or the set itself) changes state.
        auto any_ready = [&] {
            if (!port->active)
                return true;
            for (auto &weak : port->members) {
                PortPtr member = weak.lock();
                if (!member)
                    continue;
                ducttape::lck_mtx_lock(member->lock);
                bool has_msg = !member->queue.empty();
                ducttape::lck_mtx_unlock(member->lock);
                if (has_msg)
                    return true;
            }
            return false;
        };
        if (opts.hasTimeout) {
            if (!ducttape::waitq_wait_deadline(port->wq, port->lock,
                                               any_ready, deadline,
                                               "mach.rcv.set")) {
                ducttape::lck_mtx_unlock(port->lock);
                return MACH_RCV_TIMED_OUT;
            }
        } else {
            ducttape::waitq_wait(port->wq, port->lock, any_ready,
                                 "mach.rcv.set");
        }
    }
}

kern_return_t
MachIpc::msgSend(IpcSpace &space, MachMessage &&msg,
                 const SendOptions &opts)
{
    CIDER_SCHED_POINT("mach.msgSend");
    // Auto-promotion: a large inline body is wrapped into a VmObject
    // and moved as a reference (descriptor cost) instead of being
    // copied per byte on both sides.
    std::uint64_t promote_at = oolPromoteThreshold();
    bool promote = promote_at != 0 && msg.body.size() >= promote_at;
    charge(kMsgBaseNs +
           (promote ? kMsgPerOolNs : bodyCopyNs(msg.body.size())));
    if (CIDER_FAULT_POINT("mach.msg.send"))
        return MACH_SEND_NO_BUFFER;

    KMsgRight dest;
    kern_return_t kr = copyinRight(space, msg.header.remotePort,
                                   msg.header.remoteDisposition, &dest);
    if (kr != KERN_SUCCESS)
        return kr == MACH_SEND_INVALID_RIGHT ? MACH_SEND_INVALID_RIGHT
                                             : MACH_SEND_INVALID_DEST;
    if (dest.disposition == MsgDisposition::MoveReceive)
        return KERN_INVALID_VALUE; // cannot address a dest by receive

    KMsg kmsg;
    kmsg.msgId = msg.header.msgId;
    if (promote) {
        kmsg.bodyObject = vm().wrapBytes(std::move(msg.body));
        vm().noteBodySend(/*promoted=*/true);
    } else {
        kmsg.body = std::move(msg.body);
        if (!kmsg.body.empty())
            vm().noteBodySend(/*promoted=*/false);
    }

    if (msg.header.localPort != MACH_PORT_NULL) {
        kr = copyinRight(space, msg.header.localPort,
                         msg.header.localDisposition, &kmsg.reply);
        if (kr != KERN_SUCCESS)
            return kr;
    }
    for (const PortDescriptor &desc : msg.ports) {
        charge(kMsgPerRightNs);
        KMsgRight right;
        kr = copyinRight(space, desc.name, desc.disposition, &right);
        if (kr != KERN_SUCCESS) {
            destroyKMsgRights(kmsg);
            return kr;
        }
        kmsg.ports.push_back(std::move(right));
    }
    std::uint64_t ool_bytes = 0;
    for (OolDescriptor &ool : msg.ool) {
        charge(kMsgPerOolNs); // zero-copy move: no per-byte cost
        if (!ool.object && !ool.data.empty()) {
            // Raw payload: wrap the bytes into an object (a move, not
            // a copy) so the reference rides the ring.
            ool.object = vm().wrapBytes(std::move(ool.data));
            ool.data.clear();
        }
        ool_bytes += ool.size();
        vm().noteOolZeroCopy();
        kmsg.ool.push_back(std::move(ool));
    }

    kr = enqueue(dest.port, std::move(kmsg), opts);
    if (kr == KERN_SUCCESS) {
        ducttape::lck_mtx_lock(statsLock_);
        ++stats_.messagesSent;
        stats_.oolBytesMoved += ool_bytes;
        ducttape::lck_mtx_unlock(statsLock_);
    }
    return kr;
}

kern_return_t
MachIpc::msgReceive(IpcSpace &space, mach_port_name_t name,
                    MachMessage &out, const RcvOptions &opts)
{
    CIDER_SCHED_POINT("mach.msgReceive");
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *entry = space.lookupEntry(name);
    if (!entry || (!entry->hasReceive && !entry->isPortSet)) {
        ducttape::lck_mtx_unlock(space.lock_);
        return MACH_RCV_INVALID_NAME;
    }
    PortPtr port = entry->port;
    ducttape::lck_mtx_unlock(space.lock_);

    if (CIDER_FAULT_POINT("mach.msg.receive"))
        return MACH_RCV_INTERRUPTED;

    KMsg kmsg;
    kern_return_t kr = dequeue(port, opts, &kmsg);
    if (kr != KERN_SUCCESS)
        return kr;

    if (kmsg.bodyObject) {
        // Promoted body: one descriptor hop plus the receiver's
        // map-in fault, regardless of size.
        charge(kMsgBaseNs + kMsgPerOolNs + vm().profile().pageFaultNs);
    } else {
        charge(kMsgBaseNs + bodyCopyNs(kmsg.body.size()));
    }

    out = MachMessage{};
    out.header.msgId = kmsg.msgId;
    out.header.localPort = name;
    if (kmsg.reply.port) {
        charge(kMsgPerRightNs);
        out.header.remotePort = copyoutRight(space, kmsg.reply);
        out.header.remoteDisposition = kmsg.reply.disposition;
    }
    if (kmsg.bodyObject) {
        // The wrapped body is uniquely ours; hand the bytes back.
        out.body = std::move(kmsg.bodyObject->data);
        kmsg.bodyObject.reset();
    } else {
        out.body = std::move(kmsg.body);
    }
    for (const KMsgRight &right : kmsg.ports) {
        charge(kMsgPerRightNs);
        PortDescriptor desc;
        desc.name = copyoutRight(space, right);
        desc.disposition = right.disposition;
        out.ports.push_back(desc);
    }
    for (OolDescriptor &ool : kmsg.ool) {
        charge(kMsgPerOolNs);
        if (ool.object && opts.mapInto) {
            // Map the object COW into the receiver's address space:
            // an entry write now, faults on first write.
            charge(kMsgOolMapNs);
            ool.address = opts.mapInto->mapObject(
                "mach.ool", ool.object, kernel::VM_PROT_RW,
                /*cow=*/true, /*shared=*/false);
        } else if (ool.object) {
            if (ool.object.use_count() == 1 &&
                !ool.object->sharedRegion) {
                // Sole reference: the move completes, no byte copy.
                ool.data = std::move(ool.object->data);
                ool.object.reset();
            } else {
                // Someone else still maps the object (deallocate ==
                // false, or a shared region): copy the bytes out.
                charge(bodyCopyNs(ool.object->data.size()));
                ool.data = ool.object->data;
            }
        }
        out.ool.push_back(std::move(ool));
    }

    ducttape::lck_mtx_lock(statsLock_);
    ++stats_.messagesReceived;
    ducttape::lck_mtx_unlock(statsLock_);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::msgRpc(IpcSpace &space, MachMessage &&request, MachMessage &reply)
{
    mach_port_name_t reply_port = MACH_PORT_NULL;
    kern_return_t kr =
        portAllocate(space, PortRight::Receive, &reply_port);
    if (kr != KERN_SUCCESS)
        return kr;

    request.header.localPort = reply_port;
    request.header.localDisposition = MsgDisposition::MakeSendOnce;
    kr = msgSend(space, std::move(request));
    if (kr != KERN_SUCCESS) {
        portDestroy(space, reply_port);
        return kr;
    }
    kr = msgReceive(space, reply_port, reply);
    portDestroy(space, reply_port);
    return kr;
}

kern_return_t
MachIpc::portLookup(IpcSpace &space, mach_port_name_t name, PortPtr *out)
{
    ducttape::lck_mtx_lock(space.lock_);
    IpcEntry *entry = space.lookupEntry(name);
    if (!entry || !entry->port) {
        ducttape::lck_mtx_unlock(space.lock_);
        return KERN_INVALID_NAME;
    }
    *out = entry->port;
    ducttape::lck_mtx_unlock(space.lock_);
    return KERN_SUCCESS;
}

kern_return_t
MachIpc::insertSendRight(IpcSpace &space, const PortPtr &port,
                         mach_port_name_t *out_name)
{
    if (!port || !port->active)
        return MACH_SEND_INVALID_DEST;
    KMsgRight right;
    right.port = port;
    right.disposition = MsgDisposition::MoveSend;
    *out_name = copyoutRight(space, right);
    return KERN_SUCCESS;
}

void
MachIpc::destroySpace(IpcSpace &space)
{
    std::vector<PortPtr> to_kill;
    ducttape::lck_mtx_lock(space.lock_);
    for (const IpcSpace::Slot &slot : space.slots_) {
        if (!slot.occupied)
            continue;
        const IpcEntry &entry = slot.entry;
        if (entry.port && (entry.hasReceive || entry.isPortSet))
            to_kill.push_back(entry.port);
    }
    space.slots_.clear();
    space.freeSlots_.clear();
    space.freeHead_ = 0;
    space.liveCount_ = 0;
    ducttape::lck_mtx_unlock(space.lock_);
    for (const PortPtr &port : to_kill)
        markPortDead(port);
}

MachIpcStats
MachIpc::stats() const
{
    ducttape::lck_mtx_lock(statsLock_);
    MachIpcStats s = stats_;
    ducttape::lck_mtx_unlock(statsLock_);
    return s;
}

ducttape::ZoneStats
MachIpc::portZoneStats() const
{
    return ducttape::zone_stats(portZone_.get());
}

void
MachIpc::armPortZoneFailure(std::int64_t n)
{
    ducttape::zone_set_fail_after(portZone_.get(), n);
}

} // namespace cider::xnu
