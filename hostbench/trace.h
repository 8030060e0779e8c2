/**
 * @file
 * Host-time spans recorded by the benchmark driver around each call it
 * makes into a layer of the simulator.
 *
 * Spans nest on the driver's single host thread. Each holds a layer
 * name, host start and end, its parent span and the op it belongs to.
 * A layer's self time is its span minus the spans nested inside it,
 * accumulated per layer as spans close. Spans stay in memory (the
 * first kKeepSpans of them) and are written out when the run ends.
 */

#ifndef HOSTBENCH_TRACE_H
#define HOSTBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace hostbench {

inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The layers the driver calls into (named after the repo's modules). */
enum class Layer : std::uint8_t
{
    Op,            ///< one whole op (root span; self = driver + unspanned)
    Trap,          ///< Kernel::trap for trivial kernel work
    Vfs,           ///< file, path and pipe syscalls
    Vm,            ///< mach_vm traps
    Fork,          ///< Kernel::sysFork
    ExitReap,      ///< exit, waitpid and reap of one process
    Net,           ///< TCP-lite stream syscalls
    MachMsg,       ///< mach_msg with an inline body
    MachMsgOol,    ///< mach_msg with a body past the OOL threshold
    Psynch,        ///< semaphore traps
    PersonaSwitch, ///< PersonaManager::setPersona
    ExecLoad,      ///< Kernel::execLoad (binfmt)
    DyldBootstrap, ///< Mach-O entry until the app's main starts
    DalvikRun,     ///< DalvikVm::run
    GlCall,        ///< one OpenGLES diplomat export
    Present,       ///< EAGL present (SurfaceFlinger compose)
    Count,
};

inline constexpr std::array<const char *,
                            static_cast<std::size_t>(Layer::Count)>
    kLayerNames = {
        "op",
        "kernel.trap",
        "kernel.vfs",
        "kernel.vm",
        "kernel.fork",
        "kernel.exit_reap",
        "kernel.net",
        "xnu.mach_msg",
        "xnu.mach_msg_ool",
        "xnu.psynch",
        "persona.switch",
        "binfmt.exec_load",
        "ios.dyld_bootstrap",
        "android.dalvik_run",
        "diplomat.gl_call",
        "android.present",
};

/** Self-time total of one layer. */
struct LayerTime
{
    std::uint64_t calls = 0;
    std::uint64_t selfNs = 0;
};

class Tracer
{
  public:
    static constexpr std::size_t kKeepSpans = 1u << 17;

    bool enabled() const { return enabled_; }
    /** Only toggled between ops, with no span open. */
    void setEnabled(bool on) { enabled_ = on; }
    void setOp(std::uint32_t op) { op_ = op; }

    /** Open a span; returns the token end() takes. */
    std::size_t
    begin(Layer layer)
    {
        stack_.push_back(Open{layer, nextId_++, hostNowNs(), 0});
        return stack_.size();
    }

    /** Close the span @p token and any left open inside it. */
    void
    end(std::size_t token)
    {
        std::uint64_t now = hostNowNs();
        while (stack_.size() >= token && token > 0)
            closeTop(now);
    }

    const std::array<LayerTime, static_cast<std::size_t>(Layer::Count)> &
    layers() const
    {
        return layers_;
    }
    std::uint64_t recorded() const { return nextId_; }

    /** Write the kept spans as TSV: id parent op layer start end. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "id\tparent\top\tlayer\tstart_ns\tend_ns\n");
        for (const Span &s : spans_)
            std::fprintf(f, "%u\t%u\t%u\t%s\t%llu\t%llu\n", s.id, s.parent,
                         s.op, kLayerNames[static_cast<std::size_t>(s.layer)],
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.endNs));
        return std::fclose(f) == 0;
    }

  private:
    struct Open
    {
        Layer layer;
        std::uint32_t id;
        std::uint64_t startNs;
        std::uint64_t childNs;
    };

    struct Span
    {
        std::uint32_t id;
        std::uint32_t parent; ///< id + 1 of the parent; 0 for a root
        std::uint32_t op;
        Layer layer;
        std::uint64_t startNs;
        std::uint64_t endNs;
    };

    void
    closeTop(std::uint64_t now)
    {
        Open top = stack_.back();
        stack_.pop_back();
        std::uint64_t dur = now - top.startNs;
        LayerTime &lt = layers_[static_cast<std::size_t>(top.layer)];
        ++lt.calls;
        lt.selfNs += dur - top.childNs;
        std::uint32_t parent = 0;
        if (!stack_.empty()) {
            stack_.back().childNs += dur;
            parent = stack_.back().id + 1;
        }
        if (spans_.size() < kKeepSpans)
            spans_.push_back(
                Span{top.id, parent, op_, top.layer, top.startNs, now});
    }

    bool enabled_ = false;
    std::uint32_t op_ = 0;
    std::uint32_t nextId_ = 0;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
    std::array<LayerTime, static_cast<std::size_t>(Layer::Count)> layers_{};
};

/** RAII span; a no-op when tracing is off. */
class Scope
{
  public:
    Scope(Tracer *tr, Layer layer)
        : tr_(tr != nullptr && tr->enabled() ? tr : nullptr)
    {
        if (tr_)
            token_ = tr_->begin(layer);
    }
    ~Scope()
    {
        if (tr_)
            tr_->end(token_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr_;
    std::size_t token_ = 0;
};

} // namespace hostbench

#endif // HOSTBENCH_TRACE_H
