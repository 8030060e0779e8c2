#include "sim.h"

#include <random>

#include "android/dalvik.h"
#include "ios/eagl.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "persona/persona.h"
#include "xnu/bsd_syscalls.h"
#include "xnu/kern_return.h"
#include "xnu/mach_traps.h"
#include "xnu/xnu_signals.h"

namespace hostbench {

namespace kernel = cider::kernel;
namespace binfmt = cider::binfmt;
namespace xnu = cider::xnu;
using kernel::Persona;
using kernel::ProcessExit;
using kernel::SyscallResult;
using kernel::Thread;
using kernel::ThreadScope;
using kernel::makeArgs;

namespace {

/** Reconnect the trap_mix stream after this many bytes (1 GiB). */
constexpr std::uint64_t kStreamBytesPerConnection = std::uint64_t{1} << 30;

const char *const kIosIdle = "/data/hostbench/ios_idle";
const char *const kIosForker = "/data/hostbench/ios_forker";
const char *const kAndroidDex = "/data/hostbench/android_dex";
const std::string kCachedPath = "/data/hostbench/cached";
const std::string kBlockPath = "/data/hostbench/block";

constexpr int kFrameCalls = 450;
constexpr int kFrameDraws = 10;
constexpr std::int64_t kFrameVertices = 8000;
/** glClearColor + glClear + the draws + glFlush. */
constexpr int kFrameStateCalls = kFrameCalls - kFrameDraws - 3;

Bytes
randomBytes(std::mt19937_64 &rng, std::size_t n)
{
    Bytes b(n);
    for (auto &c : b)
        c = static_cast<std::uint8_t>(rng());
    return b;
}

std::uint64_t
uniform(std::mt19937_64 &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng() % (hi - lo + 1);
}

/** sq(x) = x*x; main(n) = sum of sq(i) for i = n..1. */
void
buildDex(binfmt::DexFile &file)
{
    using binfmt::DexOp;
    binfmt::DexAssembler sq(file, "sq", 1);
    sq.load(0).load(0).op(DexOp::Mul).ret();
    sq.finish();

    binfmt::DexAssembler as(file, "main", 2);
    as.constI(0).store(1);
    std::int64_t top = as.here();
    as.load(0);
    std::size_t done = as.jz();
    as.load(1).load(0);
    std::size_t call = static_cast<std::size_t>(as.here());
    as.callMethod("sq").op(DexOp::Add).store(1);
    as.load(0).constI(1).op(DexOp::Sub).store(0);
    as.op(DexOp::Jmp, top);
    as.patch(done, as.here());
    as.load(1).ret();
    as.finish();
    file.methods["main"].code[call].a = 1; // one argument
}

bool
krOk(const SyscallResult &r)
{
    return r.ok() && r.value == xnu::KERN_SUCCESS;
}

} // namespace

Inputs
makeInputs(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Inputs in;
    in.fileBlock = randomBytes(rng, 4096);
    in.pipeToken = randomBytes(rng, uniform(rng, 16, 512));
    in.inlineBody = randomBytes(rng, uniform(rng, 64, 1024));
    in.oolBody = randomBytes(rng, uniform(rng, 8192, 16384));
    in.streamChunk = randomBytes(rng, 1024);
    in.vmBytes = uniform(rng, 1, 16) * kernel::kVmPageBytes;
    in.vmPattern = randomBytes(rng, uniform(rng, 4, 256));
    in.semaphore = (std::uint64_t{0x5eed} << 24) | uniform(rng, 1, 1u << 20);
    in.dexN = static_cast<std::int64_t>(uniform(rng, 16, 48));

    for (int i = 0; i < kFrameStateCalls; ++i)
        in.stateCalls.push_back(static_cast<int>(uniform(rng, 0, 2)));
    std::vector<std::uint64_t> weights(kFrameDraws);
    std::uint64_t total = 0;
    for (auto &w : weights)
        total += (w = uniform(rng, 1, 100));
    std::int64_t placed = 0;
    for (std::uint64_t w : weights) {
        auto v = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(kFrameVertices) * w / total);
        in.drawVertices.push_back(v);
        placed += v;
    }
    in.drawVertices.back() += kFrameVertices - placed;
    for (int c = 0; c < 3; ++c)
        in.clearRgba[c] = static_cast<double>(uniform(rng, 0, 255)) / 255.0;
    in.fleetSeed = seed;
    return in;
}

Sim::Sim(const Inputs &in, Tracer *tr) : in_(in), tr_(tr)
{
    cider::core::SystemOptions opts;
    opts.config = cider::core::SystemConfig::CiderIos;
    sys_ = std::make_unique<cider::core::CiderSystem>(opts);
    install();
    launcher_ = &sys_->kernel().createProcess("hostbench.launcher",
                                              Persona::Android);
    openSession();
}

Sim::~Sim() = default;

void
Sim::install()
{
    sys_->installMachOExecutable(kIosIdle, "hostbench.ios_idle",
                                 [this](binfmt::UserEnv &) {
                                     mainStarted();
                                     return 0;
                                 });
    sys_->installMachOExecutable(kIosForker, "hostbench.ios_forker",
                                 [this](binfmt::UserEnv &env) {
                                     mainStarted();
                                     return forkerMain(env);
                                 });
    sys_->installElfExecutable(
        kAndroidDex, "hostbench.android_dex",
        [this](binfmt::UserEnv &env) { return dexMain(env); });
    sys_->kernel().vfs().writeFile(kCachedPath, Bytes(64, 0x5a));

    buildDex(dex_);
    std::int64_t n = in_.dexN;
    dexExpect_ = n * (n + 1) * (2 * n + 1) / 6;
}

SyscallResult
Sim::bsd(int nr, kernel::SyscallArgs a)
{
    return sys_->kernel().trap(app_->mainThread(), kernel::TrapClass::XnuBsd,
                               nr, std::move(a));
}

SyscallResult
Sim::mach(int nr, kernel::SyscallArgs a)
{
    return sys_->kernel().trap(app_->mainThread(),
                               kernel::TrapClass::XnuMach, nr, std::move(a));
}

void
Sim::openSession()
{
    ThreadScope ls(launcher_->mainThread());
    Launch l = launch(kIosIdle, true);
    if (!l.why.empty() || l.rc != 0) {
        setupError_ = "session app launch: " + l.why;
        return;
    }
    app_ = l.proc;
    Thread &t = app_->mainThread();
    ThreadScope as(t);
    auto need = [this](bool ok, const char *what) {
        if (!ok && setupError_.empty())
            setupError_ = std::string("session set-up: ") + what;
    };

    SyscallResult r = bsd(xnu::xnuno::OPEN,
                          makeArgs(kBlockPath, std::int64_t{
                                                   kernel::oflag::RDWR |
                                                   kernel::oflag::CREAT}));
    need(r.ok(), "open block file");
    fileFd_ = static_cast<int>(r.value);

    r = bsd(xnu::xnuno::PIPE, makeArgs(static_cast<void *>(pipeFds_)));
    need(r.ok(), "pipe");

    kernel::SignalAction act;
    act.kind = kernel::SignalAction::Kind::Handler;
    act.fn = [this](int, const kernel::SigInfo &) { ++signalsSeen_; };
    r = bsd(xnu::xnuno::SIGACTION,
            makeArgs(std::int64_t{xnu::dsig::USR1},
                     static_cast<void *>(&act)));
    need(r.ok(), "sigaction");

    xnu::mach_port_name_t port = xnu::MACH_PORT_NULL;
    r = mach(xnu::machno::PORT_ALLOCATE,
             makeArgs(static_cast<std::uint64_t>(xnu::PortRight::Receive),
                      static_cast<void *>(&port)));
    need(krOk(r), "mach_port_allocate");
    port_ = port;
    std::uint64_t threshold = sys_->machIpc().oolPromoteThreshold();
    need(threshold != 0 && in_.inlineBody.size() < threshold &&
             in_.oolBody.size() >= threshold,
         "message sizes straddle the OOL promotion threshold");

    need(openStream(), "TCP-lite stream");

    const binfmt::LibraryImage *eagl =
        sys_->iosLibraries().find("EAGL.dylib");
    const binfmt::LibraryImage *gles =
        sys_->iosLibraries().find("OpenGLES.dylib");
    need(eagl && gles, "EAGL/OpenGLES dylibs");
    if (!eagl || !gles)
        return;
    auto sym = [&need](const binfmt::LibraryImage *lib, const char *name) {
        const binfmt::Symbol *s = lib->exports.find(name);
        need(s != nullptr, name);
        return s;
    };
    const binfmt::Symbol *create = sym(eagl, cider::ios::kEaglCreateContext);
    const binfmt::Symbol *current = sym(eagl, cider::ios::kEaglSetCurrent);
    eaglPresent_ = sym(eagl, cider::ios::kEaglPresent);
    glState_ = {sym(gles, "glUniform1f"), sym(gles, "glBindTexture"),
                sym(gles, "glUniformMatrix4fv")};
    glDraw_ = sym(gles, "glDrawArrays");
    glFlush_ = sym(gles, "glFlush");
    glClearColor_ = sym(gles, "glClearColor");
    glClear_ = sym(gles, "glClear");
    if (!setupError_.empty())
        return;
    eaglCtx_ = binfmt::valueI64(
        glCall(create, {std::int64_t{320}, std::int64_t{480}}));
    need(eaglCtx_ > 0, "EAGL context");
    need(binfmt::valueI64(glCall(current, {eaglCtx_})) == 1,
         "EAGL setCurrent");
}

bool
Sim::openStream()
{
    // Both ends live in the app, hairpinned through the NIC and the
    // loopback fabric. Each connection gets a fresh port.
    kernel::Kernel &k = sys_->kernel();
    Thread &t = app_->mainThread();
    int one = 1;
    const auto lport =
        static_cast<kernel::NetPort>(30000 + streams_++ % 1000);
    streamBytes_ = 0;
    SyscallResult lr = k.sysNetSocket(t, 1);
    SyscallResult cr = k.sysNetSocket(t, 1);
    if (!lr.ok() || !cr.ok())
        return false;
    auto lfd = static_cast<kernel::Fd>(lr.value);
    streamClient_ = static_cast<int>(cr.value);
    k.sysIoctl(t, streamClient_, kernel::netio::FIONBIO, &one);
    SyscallResult ar = SyscallResult::failure(kernel::lnx::INVAL);
    if (k.sysNetBind(t, lfd, 0, lport).ok() && k.sysListen(t, lfd, 4).ok() &&
        k.sysNetConnect(t, streamClient_, k.net().defaultAddr(), lport).ok())
        ar = k.sysAccept(t, lfd);
    k.sysClose(t, lfd);
    if (!ar.ok())
        return false;
    streamServer_ = static_cast<int>(ar.value);
    k.sysIoctl(t, streamServer_, kernel::netio::FIONBIO, &one);
    return true;
}

Sim::Launch
Sim::launch(const char *path, bool macho)
{
    kernel::Kernel &k = sys_->kernel();
    Launch l;
    SyscallResult fr;
    {
        Scope s(tr_, Layer::Fork);
        fr = k.sysFork(launcher_->mainThread(), nullptr, false);
    }
    if (!fr.ok()) {
        l.why = "fork errno " + std::to_string(fr.err);
        return l;
    }
    l.pid = static_cast<int>(fr.value);
    l.proc = k.findProcess(l.pid);
    Thread &ct = l.proc->mainThread();
    ThreadScope cs(ct);
    SyscallResult er;
    {
        Scope s(tr_, Layer::ExecLoad);
        er = k.execLoad(ct, path, {path});
    }
    if (!er.ok()) {
        l.why = std::string("execLoad ") + path + " errno " +
                std::to_string(er.err);
        l.rc = 127;
        return l;
    }
    if (macho && tr_ && tr_->enabled())
        dyldToken_ = tr_->begin(Layer::DyldBootstrap);
    try {
        l.rc = l.proc->image().entry ? l.proc->image().entry(ct) : 0;
    } catch (const ProcessExit &e) {
        l.rc = e.code;
    }
    mainStarted(); // closes the dyld span if main never ran
    return l;
}

bool
Sim::exitAndReap(Launch &l, int *status)
{
    kernel::Kernel &k = sys_->kernel();
    Scope s(tr_, Layer::ExitReap);
    Thread &ct = l.proc->mainThread();
    if (l.proc->state() == kernel::Process::State::Running) {
        ThreadScope cs(ct);
        try {
            k.sysExit(ct, l.rc);
        } catch (const ProcessExit &) {
        }
    }
    SyscallResult w = k.sysWaitpid(launcher_->mainThread(), l.pid, status);
    k.reapProcess(l.pid);
    return w.ok();
}

void
Sim::mainStarted()
{
    if (dyldToken_ != 0) {
        tr_->end(dyldToken_);
        dyldToken_ = 0;
    }
}

int
Sim::forkerMain(binfmt::UserEnv &env)
{
    // Fig. 5's fork+exit(ios): COW-fork the dyld-mapped image, let the
    // child exit, reap it.
    kernel::Kernel &k = env.kernel;
    SyscallResult fr;
    {
        Scope s(tr_, Layer::Fork);
        fr = k.sysFork(
            env.thread,
            [&k](Thread &c) -> int { k.sysExit(c, 0); }, false);
    }
    if (!fr.ok())
        return 10;
    kernel::Process *child = k.findProcess(static_cast<int>(fr.value));
    int status = -1;
    Scope s(tr_, Layer::ExitReap);
    k.runProcess(*child);
    SyscallResult w =
        k.sysWaitpid(env.thread, static_cast<int>(fr.value), &status);
    k.reapProcess(static_cast<int>(fr.value));
    if (!w.ok())
        return 11;
    return status == 0 ? 0 : 12;
}

int
Sim::dexMain(binfmt::UserEnv &)
{
    cider::android::DexVal r;
    {
        Scope s(tr_, Layer::DalvikRun);
        r = sys_->dalvik().run(dex_, "main", {in_.dexN});
    }
    return cider::android::dexI(r) == dexExpect_ ? 0 : 3;
}

binfmt::Value
Sim::glCall(const binfmt::Symbol *sym, std::vector<binfmt::Value> args)
{
    binfmt::UserEnv env{sys_->kernel(), app_->mainThread(), {}};
    Scope s(tr_, Layer::GlCall);
    return sym->fn(env, args);
}

OpResult
Sim::trapRound()
{
    OpResult res;
    auto fail = [&res](const char *what) {
        if (!res.failed) {
            res.failed = true;
            res.why = what;
        }
    };
    auto check = [&res](bool same, const char *what) {
        if (!same && !res.wrong) {
            res.wrong = true;
            res.why = what;
        }
    };
    namespace nr = xnu::xnuno;
    namespace mnr = xnu::machno;
    Thread &t = app_->mainThread();
    ThreadScope as(t);
    if (streamBytes_ >= kStreamBytesPerConnection) {
        // TCP-lite corrupts a stream once its 32-bit sequence space
        // wraps (after 4 GiB); reconnect well before, outside the op.
        sys_->kernel().sysClose(t, streamClient_);
        sys_->kernel().sysClose(t, streamServer_);
        if (!openStream()) {
            res.failed = true;
            res.why = "TCP-lite reconnect";
            return res;
        }
    }
    const std::uint64_t v0 = t.clock().now();
    SyscallResult r;
    Bytes buf;

    {
        Scope s(tr_, Layer::Trap);
        r = bsd(nr::NULL_SYSCALL, {});
    }
    if (!r.ok())
        fail("null syscall");

    {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::OPEN,
                makeArgs(kCachedPath, std::int64_t{kernel::oflag::RDONLY}));
    }
    if (r.ok()) {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::CLOSE, makeArgs(std::int64_t{r.value}));
    }
    if (!r.ok())
        fail("open/close");

    const auto fd = std::int64_t{fileFd_};
    const std::int64_t seekSet = kernel::seekw::SET;
    {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::LSEEK, makeArgs(fd, std::int64_t{0}, seekSet));
    }
    {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::WRITE, makeArgs(fd, &in_.fileBlock));
    }
    if (!r.ok() || r.value != 4096)
        fail("4 KB write");
    {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::LSEEK, makeArgs(fd, std::int64_t{0}, seekSet));
    }
    {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::READ, makeArgs(fd, &buf, std::uint64_t{4096}));
    }
    if (!r.ok())
        fail("4 KB read");
    check(buf == in_.fileBlock, "4 KB read returned other bytes");

    {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::WRITE,
                makeArgs(std::int64_t{pipeFds_[1]}, &in_.pipeToken));
    }
    if (r.ok()) {
        Scope s(tr_, Layer::Vfs);
        r = bsd(nr::READ,
                makeArgs(std::int64_t{pipeFds_[0]}, &buf,
                         std::uint64_t{in_.pipeToken.size()}));
    }
    if (!r.ok())
        fail("pipe");
    check(buf == in_.pipeToken, "pipe returned other bytes");

    std::uint64_t seen = signalsSeen_;
    {
        Scope s(tr_, Layer::Trap);
        r = bsd(nr::KILL, makeArgs(std::int64_t{app_->pid()},
                                   std::int64_t{xnu::dsig::USR1}));
    }
    if (!r.ok())
        fail("kill");
    check(signalsSeen_ == seen + 1, "self-signal not delivered");

    for (bool ool : {false, true}) {
        xnu::MachMessage msg;
        msg.header.remotePort = port_;
        msg.header.remoteDisposition = xnu::MsgDisposition::MakeSend;
        msg.header.msgId = ool ? 0x4f4f4c : 0x494e4c;
        msg.body = ool ? in_.oolBody : in_.inlineBody;
        xnu::MachMessage rcv;
        {
            Scope s(tr_, ool ? Layer::MachMsgOol : Layer::MachMsg);
            r = mach(mnr::MACH_MSG,
                     makeArgs(static_cast<void *>(&msg),
                              xnu::machmsg::SEND | xnu::machmsg::RCV |
                                  xnu::machmsg::RCV_TIMEOUT,
                              std::uint64_t{port_},
                              static_cast<void *>(&rcv), std::uint64_t{0}));
        }
        if (!krOk(r))
            fail(ool ? "mach_msg ool" : "mach_msg inline");
        check(rcv.body == (ool ? in_.oolBody : in_.inlineBody),
              "mach_msg returned another body");
    }

    {
        Scope s(tr_, Layer::Psynch);
        r = mach(mnr::SEMAPHORE_SIGNAL, makeArgs(in_.semaphore));
    }
    if (krOk(r)) {
        Scope s(tr_, Layer::Psynch);
        r = mach(mnr::SEMAPHORE_WAIT,
                 makeArgs(in_.semaphore, std::uint64_t{25'000}));
    }
    if (!krOk(r))
        fail("semaphore");

    std::uint64_t addr = 0;
    {
        Scope s(tr_, Layer::Vm);
        r = mach(mnr::VM_ALLOCATE,
                 makeArgs(in_.vmBytes, static_cast<void *>(&addr)));
    }
    if (krOk(r)) {
        {
            Scope s(tr_, Layer::Vm);
            r = mach(mnr::VM_WRITE, makeArgs(addr, &in_.vmPattern));
        }
        if (!krOk(r))
            fail("mach_vm_write");
        {
            Scope s(tr_, Layer::Vm);
            r = mach(mnr::VM_READ,
                     makeArgs(addr, std::uint64_t{in_.vmPattern.size()},
                              &buf));
        }
        if (!krOk(r))
            fail("mach_vm_read");
        check(buf == in_.vmPattern, "mach_vm_read returned other bytes");
        {
            Scope s(tr_, Layer::Vm);
            r = mach(mnr::VM_DEALLOCATE, makeArgs(addr));
        }
        if (!krOk(r))
            fail("mach_vm_deallocate");
    } else {
        fail("mach_vm_allocate");
    }

    cider::persona::PersonaManager *pm = sys_->personaManager();
    {
        Scope s(tr_, Layer::PersonaSwitch);
        pm->setPersona(t, Persona::Android);
    }
    {
        Scope s(tr_, Layer::PersonaSwitch);
        pm->setPersona(t, Persona::Ios);
    }
    directSwitches_ += 2;

    {
        Scope s(tr_, Layer::Net);
        r = bsd(nr::WRITE,
                makeArgs(std::int64_t{streamClient_}, &in_.streamChunk));
    }
    if (!r.ok() || r.value != 1024)
        fail("stream write");
    streamBytes_ += in_.streamChunk.size();
    {
        Scope s(tr_, Layer::Net);
        r = bsd(nr::IOCTL, makeArgs(std::int64_t{streamClient_},
                                    kernel::netio::PUMP,
                                    static_cast<void *>(nullptr)));
    }
    {
        Scope s(tr_, Layer::Net);
        r = bsd(nr::READ, makeArgs(std::int64_t{streamServer_}, &buf,
                                   std::uint64_t{1024}));
    }
    if (!r.ok())
        fail("stream read");
    check(buf == in_.streamChunk, "stream returned other bytes");

    res.virtualNs = t.clock().now() - v0;
    return res;
}

OpResult
Sim::launchPair()
{
    OpResult res;
    Thread &lt = launcher_->mainThread();
    ThreadScope ls(lt);
    const std::uint64_t v0 = lt.clock().now();
    for (bool macho : {true, false}) {
        Launch l = launch(macho ? kIosForker : kAndroidDex, macho);
        if (!l.proc) {
            res.failed = true;
            res.why = l.why;
            break;
        }
        int status = -1;
        bool reaped = exitAndReap(l, &status);
        if (!l.why.empty() || !reaped || status != 0) {
            res.failed = true;
            res.why = macho ? "ios app" : "android app";
            res.why += !l.why.empty() ? ": " + l.why
                                      : " exit " + std::to_string(status);
            if (status == 3)
                res.wrong = true; // the dex result was wrong
        }
    }
    res.virtualNs = lt.clock().now() - v0;
    return res;
}

OpResult
Sim::glFrame()
{
    OpResult res;
    Thread &t = app_->mainThread();
    ThreadScope as(t);
    const std::uint64_t v0 = t.clock().now();
    const double *c = in_.clearRgba;
    glCall(glClearColor_, {c[0], c[1], c[2], c[3]});
    glCall(glClear_, {std::int64_t{0x4000}});
    // Draws interleave evenly through the state calls, as in Fig. 6.
    const int every = kFrameStateCalls / kFrameDraws;
    std::size_t drawn = 0;
    auto draw = [&] {
        glCall(glDraw_, {std::int64_t{4}, std::int64_t{0},
                         in_.drawVertices[drawn++]});
    };
    for (int i = 0; i < kFrameStateCalls; ++i) {
        switch (in_.stateCalls[static_cast<std::size_t>(i)]) {
          case 0:
            glCall(glState_[0], {std::int64_t{1}, binfmt::Value{0.5}});
            break;
          case 1:
            glCall(glState_[1], {std::int64_t{0}, std::int64_t{1}});
            break;
          default:
            glCall(glState_[2], {std::int64_t{2}});
            break;
        }
        if (i % every == 0 && drawn < in_.drawVertices.size())
            draw();
    }
    while (drawn < in_.drawVertices.size())
        draw();
    glCall(glFlush_, {});
    binfmt::Value presented;
    {
        binfmt::UserEnv env{sys_->kernel(), t, {}};
        std::vector<binfmt::Value> args{eaglCtx_};
        Scope s(tr_, Layer::Present);
        presented = eaglPresent_->fn(env, args);
    }
    if (binfmt::valueI64(presented) != 1) {
        res.failed = true;
        res.why = "EAGL present";
    }
    res.virtualNs = t.clock().now() - v0;
    return res;
}

std::uint64_t
Sim::scanoutChecksum()
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t px : sys_->framebuffer().frontBuffer().pixels) {
        for (int b = 0; b < 4; ++b) {
            h ^= (px >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

} // namespace hostbench
