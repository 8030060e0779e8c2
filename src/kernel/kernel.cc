#include "kernel/kernel.h"

#include "kernel/pipe.h"
#include <algorithm>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/fault_rail.h"
#include "kernel/sched_rail.h"
#include "kernel/trap_context.h"

namespace cider::kernel {

namespace {

/** An open regular file: shared inode plus this open's offset. */
class RegularFile : public OpenFile
{
  public:
    RegularFile(InodePtr inode, const hw::DeviceProfile &profile, int flags)
        : inode_(std::move(inode)), profile_(profile), flags_(flags)
    {}

    std::string kind() const override { return "file"; }

    SyscallResult
    read(Thread &, Bytes &out, std::size_t n) override
    {
        if ((flags_ & oflag::WRONLY) != 0)
            return SyscallResult::failure(lnx::BADF);
        const Bytes &data = inode_->data;
        if (offset_ >= data.size()) {
            out.clear();
            return SyscallResult::success(0);
        }
        std::size_t take = std::min(n, data.size() - offset_);
        charge(take * profile_.storageReadBytePs / 1000);
        out.assign(data.begin() + static_cast<std::ptrdiff_t>(offset_),
                   data.begin() + static_cast<std::ptrdiff_t>(offset_ + take));
        offset_ += take;
        return SyscallResult::success(static_cast<std::int64_t>(take));
    }

    SyscallResult
    write(Thread &, const Bytes &data) override
    {
        if ((flags_ & (oflag::WRONLY | oflag::RDWR)) == 0)
            return SyscallResult::failure(lnx::BADF);
        charge(data.size() * profile_.storageWriteBytePs / 1000);
        Bytes &dst = inode_->data;
        if (offset_ + data.size() > dst.size())
            dst.resize(offset_ + data.size());
        std::copy(data.begin(), data.end(),
                  dst.begin() + static_cast<std::ptrdiff_t>(offset_));
        offset_ += data.size();
        return SyscallResult::success(static_cast<std::int64_t>(data.size()));
    }

    SyscallResult
    seek(std::int64_t offset, int whence) override
    {
        std::int64_t base = 0;
        switch (whence) {
          case seekw::SET:
            base = 0;
            break;
          case seekw::CUR:
            base = static_cast<std::int64_t>(offset_);
            break;
          case seekw::END:
            base = static_cast<std::int64_t>(inode_->data.size());
            break;
          default:
            return SyscallResult::failure(lnx::INVAL);
        }
        std::int64_t target = base + offset;
        if (target < 0)
            return SyscallResult::failure(lnx::INVAL);
        offset_ = static_cast<std::size_t>(target);
        return SyscallResult::success(target);
    }

    PollState
    poll() const override
    {
        return {true, true, false};
    }

  private:
    InodePtr inode_;
    const hw::DeviceProfile &profile_;
    int flags_;
    std::size_t offset_ = 0;
};

/**
 * The unmodified domestic dispatcher: one table, one trap class.
 * Foreign trap classes do not exist on vanilla Android.
 */
class VanillaDispatcher : public TrapDispatcher
{
  public:
    const char *name() const override { return "vanilla-linux"; }

    SyscallResult
    dispatch(TrapContext &ctx) override
    {
        if (ctx.cls != TrapClass::LinuxSyscall) {
            warn("vanilla kernel has no handler for trap class ",
                 trapClassName(ctx.cls));
            return SyscallResult::failure(lnx::NOSYS);
        }
        ctx.table = &ctx.kernel.linuxTable();
        ctx.entry = ctx.table->find(ctx.nr);
        if (!ctx.entry)
            return SyscallResult::failure(lnx::NOSYS);
        return ctx.entry->call(ctx);
    }
};

} // namespace

/** Largest dense span one table may cover (a registration this far
 *  from the rest of the table is a table-construction bug). */
constexpr std::size_t kMaxTableSpan = 65536;

SyscallTable::Entry &
SyscallTable::slotFor(int nr, const char *sys_name)
{
    if (dense_.empty()) {
        base_ = nr;
        dense_.emplace_back();
        return dense_.front();
    }
    if (nr < base_) {
        std::size_t grow = static_cast<std::size_t>(base_ - nr);
        if (dense_.size() + grow > kMaxTableSpan)
            // invariant-only: tables are built from static in-tree
            // registrations, never from foreign user input.
            cider_panic("syscall table ", name_, ": registering ",
                        sys_name, " (nr ", nr,
                        ") would exceed the dense span limit");
        dense_.insert(dense_.begin(), grow, Entry{});
        base_ = nr;
    }
    auto idx = static_cast<std::size_t>(nr - base_);
    if (idx >= dense_.size()) {
        if (idx + 1 > kMaxTableSpan)
            // invariant-only: see above.
            cider_panic("syscall table ", name_, ": registering ",
                        sys_name, " (nr ", nr,
                        ") would exceed the dense span limit");
        dense_.resize(idx + 1);
    }
    return dense_[idx];
}

SyscallTable::Entry &
SyscallTable::set(int nr, const char *sys_name, SyscallFn fn,
                  void *user)
{
    Entry &e = slotFor(nr, sys_name);
    if (!e.empty())
        // invariant-only: duplicate registration is an in-tree bug.
        cider_panic("syscall table ", name_, ": duplicate registration "
                    "of nr ", nr, " (", e.name ? e.name : "?", " vs ",
                    sys_name, ")");
    e.name = sys_name;
    e.fn = fn;
    e.user = user;
    if (stats_)
        e.statSlot = stats_->newSlot();
    ++count_;
    return e;
}

const char *
SyscallTable::sysName(int nr) const
{
    const Entry *e = find(nr);
    return e ? e->name : nullptr;
}

std::vector<int>
SyscallTable::registeredNumbers() const
{
    std::vector<int> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < dense_.size(); ++i)
        if (!dense_[i].empty())
            out.push_back(base_ + static_cast<int>(i));
    return out;
}

Kernel::Kernel(const hw::DeviceProfile &profile)
    : profile_(profile), vm_(std::make_unique<VmSubsystem>(&profile)),
      percpu_(profile.cpuCores, &trapStats_), vfs_(profile),
      net_(profile), linuxTable_("linux")
{
    dispatcher_ = std::make_unique<VanillaDispatcher>();
    signalHook_ = std::make_unique<SignalDeliveryHook>();
    vfs_.mkdirAll("/dev");
    vfs_.mkdirAll("/tmp");
    vfs_.mkdirAll("/data");
    vfs_.mkdirAll("/system/bin");
    vfs_.mkdirAll("/system/lib");

    registerLinuxSyscalls();
    trapStats_.attachTable(linuxTable_);
    vfs_.mkdirAll("/proc/cider");
    addProcNode("trapstats", [this] { return trapStats_.dump(); });
    addProcNode("faults", [] { return FaultRail::global().dump(); });
    addProcNode("lockorder",
                [] { return SchedRail::global().lockGraph().dump(); });
    addProcNode("percpu", [this] { return percpu_.dump(); });
    addProcNode("vm", [this] { return dumpVm(*this); });
    addProcNode("net", [this] { return net_.dump(); });
}

Kernel::~Kernel() = default;

void
Kernel::addProcNode(const std::string &name, ProcNode::Render render)
{
    Device &node =
        devices_.add(std::make_unique<ProcNode>(name, std::move(render)));
    vfs_.mknod("/proc/cider/" + name, &node);
}

Process &
Kernel::createProcess(const std::string &name, Persona persona,
                      Process *parent)
{
    std::lock_guard<std::mutex> lock(procMu_);
    Pid pid = nextPid_++;
    auto proc = std::make_unique<Process>(pid, name, parent);
    proc->mem().bind(vm_.get());
    proc->createThread(persona);
    Process &ref = *proc;
    processes_[pid] = std::move(proc);
    return ref;
}

void
Kernel::forEachProcess(const std::function<void(Process &)> &fn) const
{
    std::lock_guard<std::mutex> lock(procMu_);
    for (const auto &[pid, proc] : processes_)
        fn(*proc);
}

Process *
Kernel::findProcess(Pid pid) const
{
    std::lock_guard<std::mutex> lock(procMu_);
    auto it = processes_.find(pid);
    return it == processes_.end() ? nullptr : it->second.get();
}

std::size_t
Kernel::processCount() const
{
    std::lock_guard<std::mutex> lock(procMu_);
    return processes_.size();
}

bool
Kernel::reapProcess(Pid pid)
{
    std::lock_guard<std::mutex> lock(procMu_);
    auto it = processes_.find(pid);
    if (it == processes_.end())
        return false;
    Process &proc = *it->second;
    if (proc.state() == Process::State::Running)
        return false;
    // Children keep raw parent pointers; orphans are adopted by
    // "init" (no parent) before the entry is destroyed.
    for (auto &[cpid, child] : processes_)
        if (child->parent() == &proc)
            child->reparent(nullptr);
    processes_.erase(it);
    return true;
}

SyscallResult
Kernel::trap(Thread &t, TrapClass cls, int nr, const SyscallArgs &args)
{
    CIDER_SCHED_POINT("trap.enter");
    TrapContext ctx{*this, t, cls, nr, args, t.persona(), t.clock().now()};
    charge(profile_.trapEnterExitNs);
    SyscallResult r;
    try {
        r = dispatcher_->dispatch(ctx);
    } catch (const BadSyscallArg &e) {
        // Foreign user space controls the argument vector; a missing
        // or mistyped argument fails the trap, it must not panic the
        // kernel (graceful degradation, not fail-stop).
        warn("bad syscall argument in ", trapClassName(cls), " nr ", nr,
             ": ", e.what());
        trapStats_.recordBadArg();
        r = SyscallResult::failure(lnx::INVAL);
    } catch (...) {
        // exit/execve unwind through the trap; account them before
        // the exception leaves the kernel.
        trapStats_.recordNoReturn(ctx, t.clock().now() - ctx.enterNs);
        throw;
    }
    // Also the SMP epoch merge: when the calling host thread is bound
    // to a simulated CPU, this thread's clock folds into the CPU's
    // epoch at the trap boundary (DESIGN.md §11).
    trapStats_.recordTrap(ctx, r, t.clock().now() - ctx.enterNs);
    checkPendingSignals(t);

    if (oomKillEnabled_) {
        // Memory-pressure kill: a Linux-path trap reports ENOMEM; a
        // Mach trap hands KERN_RESOURCE_SHORTAGE back in the return
        // register (its "success" value carries the kern_return_t).
        bool oom = !r.ok() && r.err == lnx::NOMEM;
        // (6 == KERN_RESOURCE_SHORTAGE; the domestic kernel does not
        // include the foreign headers, only the ABI value.) Only
        // entries tagged returnsKr carry a kern_return_t there —
        // identity traps return plain values (a tid, a port name) in
        // the same register, and those can legitimately be 6.
        if (!oom && cls == TrapClass::XnuMach && ctx.entry &&
            ctx.entry->returnsKr && r.ok() && r.value == 6)
            oom = true;
        // Only the process main thread unwinds via ProcessExit —
        // runProcess catches it there; service threads started with
        // startThread have no such handler on their host thread.
        if (oom && &t == &t.process().mainThread() &&
            t.process().state() == Process::State::Running) {
            int code = 128 + lsig::KILL;
            warn("oom-killing pid ", t.process().pid(), " (",
                 t.process().name(), ") after resource-shortage trap");
            trapStats_.recordOomKill();
            Process &proc = t.process();
            proc.terminate(code, t.clock().now());
            notifyParentExit(proc);
            throw ProcessExit{code};
        }
    }
    return r;
}

std::unique_ptr<TrapDispatcher>
Kernel::setDispatcher(std::unique_ptr<TrapDispatcher> d)
{
    if (!d)
        // invariant-only: dispatchers are installed by in-tree setup.
        cider_panic("null dispatcher");
    dispatcher_.swap(d);
    return d;
}

void
Kernel::registerLoader(std::unique_ptr<BinaryLoader> loader)
{
    loaders_.push_back(std::move(loader));
}

void
Kernel::setSignalHook(std::unique_ptr<SignalDeliveryHook> hook)
{
    if (!hook)
        // invariant-only: hooks are installed by in-tree setup.
        cider_panic("null signal hook");
    signalHook_ = std::move(hook);
}

SyscallResult
Kernel::sysNull(Thread &)
{
    // lmbench's "null" syscall: dispatch bookkeeping and nothing else.
    charge(profile_.nullSyscallWorkNs);
    return SyscallResult::success();
}

SyscallResult
Kernel::sysOpen(Thread &t, std::string_view path, int flags)
{
    charge(profile_.storageOpenNs);
    Lookup lk = vfs_.lookup(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    InodePtr node = lk.inode;
    if (!node) {
        if (!(flags & oflag::CREAT))
            return SyscallResult::failure(lnx::NOENT);
        SyscallResult r = vfs_.create(std::string(path), &node);
        if (!r.ok())
            return r;
    } else if (flags & oflag::TRUNC) {
        node->data.clear();
    }
    std::shared_ptr<OpenFile> file;
    switch (node->type) {
      case InodeType::Regular:
        file = std::make_shared<RegularFile>(node, profile_, flags);
        break;
      case InodeType::DeviceNode:
        if (!node->device)
            return SyscallResult::failure(lnx::NXIO);
        file = std::make_shared<DeviceFile>(*node->device);
        break;
      case InodeType::Directory:
        return SyscallResult::failure(lnx::ISDIR);
    }
    return t.process().fds().install(std::move(file),
                                     (flags & oflag::CLOEXEC) != 0);
}

SyscallResult
Kernel::sysClose(Thread &t, Fd fd)
{
    return t.process().fds().close(fd);
}

SyscallResult
Kernel::sysRead(Thread &t, Fd fd, Bytes &out, std::size_t n)
{
    auto desc = t.process().fds().get(fd);
    if (!desc || !desc->file)
        return SyscallResult::failure(lnx::BADF);
    return desc->file->read(t, out, n);
}

SyscallResult
Kernel::sysWrite(Thread &t, Fd fd, const Bytes &data)
{
    auto desc = t.process().fds().get(fd);
    if (!desc || !desc->file)
        return SyscallResult::failure(lnx::BADF);
    SyscallResult r = desc->file->write(t, data);
    if (!r.ok() && r.err == lnx::PIPE) {
        // Linux raises SIGPIPE alongside the EPIPE return.
        SigInfo info;
        info.signo = lsig::PIPE;
        info.senderPid = t.process().pid();
        deliverSignal(t, info);
    }
    return r;
}

SyscallResult
Kernel::sysDup(Thread &t, Fd fd)
{
    return t.process().fds().dup(fd);
}

SyscallResult
Kernel::sysPipe(Thread &t, Fd out_fds[2])
{
    auto [rd, wr] = makePipe(profile_);
    SyscallResult r0 = t.process().fds().install(rd);
    if (!r0.ok())
        return r0;
    SyscallResult r1 = t.process().fds().install(wr);
    if (!r1.ok()) {
        t.process().fds().close(static_cast<Fd>(r0.value));
        return r1;
    }
    out_fds[0] = static_cast<Fd>(r0.value);
    out_fds[1] = static_cast<Fd>(r1.value);
    return SyscallResult::success();
}

SyscallResult
Kernel::sysMkdir(Thread &, const std::string &path)
{
    charge(profile_.storageCreateNs / 2);
    return vfs_.mkdir(path);
}

SyscallResult
Kernel::sysUnlink(Thread &, const std::string &path)
{
    return vfs_.unlink(path);
}

SyscallResult
Kernel::sysRmdir(Thread &, const std::string &path)
{
    return vfs_.rmdir(path);
}

SyscallResult
Kernel::sysGetpid(Thread &t)
{
    return SyscallResult::success(t.process().pid());
}

SyscallResult
Kernel::sysGetppid(Thread &t)
{
    Process *parent = t.process().parent();
    return SyscallResult::success(parent ? parent->pid() : 0);
}

SyscallResult
Kernel::sysLseek(Thread &t, Fd fd, std::int64_t offset, int whence)
{
    auto desc = t.process().fds().get(fd);
    if (!desc || !desc->file)
        return SyscallResult::failure(lnx::BADF);
    return desc->file->seek(offset, whence);
}

SyscallResult
Kernel::sysStat(Thread &t, const std::string &path, StatBuf *out)
{
    (void)t;
    charge(profile_.storageOpenNs / 2);
    Lookup lk = vfs_.lookup(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (!lk.inode)
        return SyscallResult::failure(lnx::NOENT);
    if (out) {
        out->size = lk.inode->data.size();
        out->type = lk.inode->type;
    }
    return SyscallResult::success();
}

SyscallResult
Kernel::sysRename(Thread &, const std::string &from,
                  const std::string &to)
{
    return vfs_.rename(from, to);
}

SyscallResult
Kernel::sysDup2(Thread &t, Fd fd, Fd new_fd)
{
    return t.process().fds().dup2(fd, new_fd);
}

SyscallResult
Kernel::sysIoctl(Thread &t, Fd fd, std::uint64_t req, void *arg)
{
    auto desc = t.process().fds().get(fd);
    if (!desc || !desc->file)
        return SyscallResult::failure(lnx::BADF);
    return desc->file->ioctl(t, req, arg);
}

SyscallResult
Kernel::sysSocket(Thread &t)
{
    auto sock = std::make_shared<UnixSocket>(profile_);
    return t.process().fds().install(std::move(sock));
}

SyscallResult
Kernel::sysSocketpair(Thread &t, Fd out_fds[2])
{
    auto [a, b] = UnixSocket::makePair(profile_);
    SyscallResult r0 = t.process().fds().install(a);
    if (!r0.ok())
        return r0;
    SyscallResult r1 = t.process().fds().install(b);
    if (!r1.ok()) {
        t.process().fds().close(static_cast<Fd>(r0.value));
        return r1;
    }
    out_fds[0] = static_cast<Fd>(r0.value);
    out_fds[1] = static_cast<Fd>(r1.value);
    return SyscallResult::success();
}

namespace {

UnixSocketPtr
socketFromFd(Thread &t, Fd fd)
{
    auto desc = t.process().fds().get(fd);
    if (!desc)
        return nullptr;
    return std::dynamic_pointer_cast<UnixSocket>(desc->file);
}

InetSocketPtr
inetFromFd(Thread &t, Fd fd)
{
    auto desc = t.process().fds().get(fd);
    if (!desc)
        return nullptr;
    return std::dynamic_pointer_cast<InetSocket>(desc->file);
}

} // namespace

SyscallResult
Kernel::sysBind(Thread &t, Fd fd, const std::string &path)
{
    auto sock = socketFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return unixRegistry_.bind(path, sock);
}

SyscallResult
Kernel::sysListen(Thread &t, Fd fd, int backlog)
{
    if (auto inet = inetFromFd(t, fd))
        return inet->listen(backlog);
    auto sock = socketFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return sock->listen(backlog);
}

SyscallResult
Kernel::sysAccept(Thread &t, Fd fd)
{
    if (auto inet = inetFromFd(t, fd)) {
        InetSocketPtr peer;
        SyscallResult r = inet->accept(peer);
        if (!r.ok())
            return r;
        return t.process().fds().install(std::move(peer));
    }
    auto sock = socketFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    UnixSocketPtr peer;
    SyscallResult r = sock->accept(peer);
    if (!r.ok())
        return r;
    return t.process().fds().install(std::move(peer));
}

SyscallResult
Kernel::sysConnect(Thread &t, Fd fd, const std::string &path)
{
    auto sock = socketFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return UnixSocket::connect(sock, unixRegistry_.find(path));
}

SyscallResult
Kernel::sysNetSocket(Thread &t, int type)
{
    NetProto proto;
    switch (type) {
    case 1: proto = NetProto::Stream; break;
    case 2: proto = NetProto::Dgram; break;
    default: return SyscallResult::failure(lnx::INVAL);
    }
    return t.process().fds().install(net_.socket(proto));
}

SyscallResult
Kernel::sysNetBind(Thread &t, Fd fd, NetAddr addr, NetPort port)
{
    auto sock = inetFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return sock->bind(addr, port);
}

SyscallResult
Kernel::sysNetConnect(Thread &t, Fd fd, NetAddr addr, NetPort port)
{
    auto sock = inetFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return sock->connectTo(addr, port);
}

SyscallResult
Kernel::sysNetSendTo(Thread &t, Fd fd, NetAddr addr, NetPort port,
                     const Bytes &data)
{
    auto sock = inetFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return sock->sendTo(t, addr, port, data);
}

SyscallResult
Kernel::sysNetRecvFrom(Thread &t, Fd fd, Bytes &out, std::size_t n,
                       NetAddr *src_addr, NetPort *src_port)
{
    auto sock = inetFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    return sock->recvFrom(t, out, n, src_addr, src_port);
}

SyscallResult
Kernel::sysNetShutdown(Thread &t, Fd fd, int how)
{
    auto sock = inetFromFd(t, fd);
    if (!sock)
        return SyscallResult::failure(lnx::NOTSOCK);
    if (how < 0 || how > 2)
        return SyscallResult::failure(lnx::INVAL);
    return sock->shutdownHow(how);
}

SyscallResult
Kernel::sysSigaction(Thread &t, int linux_signo, const SignalAction &action)
{
    if (linux_signo <= 0 || linux_signo >= lsig::COUNT)
        return SyscallResult::failure(lnx::INVAL);
    if (linux_signo == lsig::KILL || linux_signo == lsig::STOP)
        return SyscallResult::failure(lnx::INVAL);
    t.process().signals().action(linux_signo) = action;
    return SyscallResult::success();
}

SyscallResult
Kernel::sysKill(Thread &t, Pid pid, int linux_signo)
{
    Process *target = findProcess(pid);
    if (!target || target->state() != Process::State::Running)
        return SyscallResult::failure(lnx::SRCH);
    if (linux_signo == 0)
        return SyscallResult::success(); // existence probe
    if (linux_signo < 0 || linux_signo >= lsig::COUNT)
        return SyscallResult::failure(lnx::INVAL);
    SigInfo info;
    info.signo = linux_signo;
    info.senderPid = t.process().pid();
    deliverSignal(target->mainThread(), info);
    return SyscallResult::success();
}

void
Kernel::deliverSignal(Thread &target, SigInfo info)
{
    // Fault site: a dropped signal models delivery failing under
    // resource exhaustion (e.g. no room for the signal frame).
    if (CIDER_FAULT_POINT("signal.deliver"))
        return;
    charge(profile_.signalDeliverNs);
    // Persona-aware preparation: numbering, frame size, translation
    // cost for foreign receivers (paper section 4.1).
    int table_signo = signalHook_->prepare(target, info);
    info.tableSigno = table_signo;

    const SignalAction &act = target.process().signals().action(table_signo);
    switch (act.kind) {
      case SignalAction::Kind::Ignore:
        return;
      case SignalAction::Kind::Handler:
        if (Thread::current() == &target) {
            // Synchronous delivery: run the handler now, charging the
            // frame materialisation.
            charge(info.frameSize / 16); // frame copy at ~16 B/ns
            act.fn(info.signo, info);
        } else {
            target.queueSignal(info);
        }
        return;
      case SignalAction::Kind::Default:
        if (SignalState::defaultTerminates(table_signo)) {
            Process &proc = target.process();
            // Same teardown contract as sysExit: modules drop
            // image-derived state, then the parent learns of the death
            // — a SIGKILL storm must leave reapable zombies, not
            // silent ones.
            notifyUnload(proc);
            proc.terminate(128 + table_signo, target.clock().now());
            notifyParentExit(proc);
        }
        return;
    }
}

void
Kernel::checkPendingSignals(Thread &t)
{
    SigInfo info;
    while (t.takePendingSignal(&info)) {
        // signo was already translated for this receiver at queue
        // time; tableSigno remembers the Linux number for lookup.
        charge(info.frameSize / 16);
        const SignalAction &act =
            t.process().signals().action(info.tableSigno);
        if (act.kind == SignalAction::Kind::Handler)
            act.fn(info.signo, info);
    }
}

SyscallResult
Kernel::sysFork(Thread &t, EntryFn child_body, bool run_now)
{
    Process &parent = t.process();

    // Base fork work (task struct, fd table, mm setup); the address
    // space itself is duplicated by VmMap::forkFrom, which charges the
    // write-protect sweep over the private entries — dominated by
    // dyld's ~90 MB of dylib mappings when an iOS binary forks
    // (Figure 5, fork+exit). Always copy-on-write: content copies are
    // deferred to first-write faults.
    charge(profile_.cyclesToNs(260000));

    Process &child =
        createProcess(parent.name() + ":child", t.persona(), &parent);
    child.mem().forkFrom(parent.mem(), /*eager=*/false);
    child.fds().forkFrom(parent.fds());
    child.signals() = parent.signals();
    child.image() = parent.image();
    child.image().entry = child_body;

    for (const auto &hook : forkHooks_)
        hook(parent, child);

    // The child's virtual clock starts where the parent's is now; the
    // parent later synchronises via waitpid, giving sequential-run
    // semantics identical wall-clock attribution to the real test.
    Thread &child_main = child.mainThread();
    child_main.clock().charge(t.clock().now());

    if (run_now && child_body)
        runProcess(child);

    return SyscallResult::success(child.pid());
}

SyscallResult
Kernel::sysExecve(Thread &t, const std::string &path,
                  const std::vector<std::string> &argv)
{
    SyscallResult r = execLoad(t, path, argv);
    if (!r.ok())
        return r;

    // execve does not return on success: run the fresh image and
    // unwind this process.
    Process &proc = t.process();
    int rc = proc.image().entry ? proc.image().entry(t) : 0;
    sysExit(t, rc);
}

SyscallResult
Kernel::execLoad(Thread &t, const std::string &path,
                 const std::vector<std::string> &argv)
{
    Bytes blob;
    SyscallResult r = vfs_.readFile(path, blob);
    if (!r.ok())
        return r;

    // Base exec work: tearing down the old image, setting up the
    // fresh one, argv/stack copy.
    charge(profile_.cyclesToNs(390000));

    BinaryLoader *chosen = nullptr;
    for (const auto &loader : loaders_) {
        if (loader->probe(blob)) {
            chosen = loader.get();
            break;
        }
    }
    if (!chosen)
        return SyscallResult::failure(lnx::NOEXEC);

    Process &proc = t.process();
    // The old image is gone from this point on; let modules drop
    // anything derived from it (translation caches and the like).
    notifyUnload(proc);
    proc.fds().closeCloexec();
    proc.signals().reset();
    proc.mem().reset();
    proc.ext().clear();
    t.ext().clear();

    r = chosen->load(*this, t, blob, path, argv);
    if (!r.ok())
        return r;

    // Post-load hooks: modules re-establish per-process state for the
    // fresh image (e.g. the Mach task bootstrap port).
    for (const auto &hook : execHooks_)
        hook(proc);

    return SyscallResult::success();
}

void
Kernel::notifyUnload(Process &proc)
{
    for (const auto &hook : unloadHooks_)
        hook(proc);
}

void
Kernel::notifyParentExit(Process &proc)
{
    Process *parent = proc.parent();
    if (!parent || parent->state() != Process::State::Running)
        return;
    SigInfo info;
    info.signo = lsig::CHLD;
    info.senderPid = proc.pid();
    deliverSignal(parent->mainThread(), info);
}

void
Kernel::sysExit(Thread &t, int code)
{
    Process &proc = t.process();
    notifyUnload(proc);
    proc.terminate(code, t.clock().now());
    notifyParentExit(proc);
    throw ProcessExit{code};
}

SyscallResult
Kernel::sysWaitpid(Thread &t, Pid pid, int *status)
{
    Process *child = findProcess(pid);
    if (!child || child->parent() != &t.process())
        return SyscallResult::failure(lnx::CHILD);
    child->waitUntilZombie();
    if (status)
        *status = child->exitCode();
    // Merge virtual time: the parent observed the child's lifetime.
    if (child->exitVirtualTime() > t.clock().now())
        t.clock().charge(child->exitVirtualTime() - t.clock().now());
    // The wait reaps: the child's table entry, Process and address
    // space go now, as reapProcess releases them.
    reapProcess(pid);
    return SyscallResult::success(pid);
}

int
Kernel::runProcess(Process &proc)
{
    Thread &main = proc.mainThread();
    ThreadScope scope(main);
    int rc = 0;
    try {
        rc = proc.image().entry ? proc.image().entry(main) : 0;
    } catch (const ProcessExit &e) {
        rc = e.code;
    }
    // sysExit already unloaded on the ProcessExit path (the process
    // is a zombie by now); entry functions that plain-return still
    // owe the image teardown.
    if (proc.state() == Process::State::Running)
        notifyUnload(proc);
    proc.terminate(rc, main.clock().now());
    return rc;
}

std::thread
Kernel::startThread(Process &proc, Persona persona,
                    std::function<void(Thread &)> fn)
{
    Thread &thread = proc.createThread(persona);
    return std::thread([&thread, fn = std::move(fn)] {
        ThreadScope scope(thread);
        fn(thread);
    });
}

} // namespace cider::kernel
