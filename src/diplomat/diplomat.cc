#include "diplomat/diplomat.h"

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/kernel.h"
#include "kernel/linux_syscalls.h"
#include "persona/tls.h"
#include "xnu/xnu_signals.h"

namespace cider::diplomat {

namespace {

// User-space arbitration costs (cycles, converted via the profile).
constexpr double kMarshalPerArgCycles = 20;
constexpr double kFirstLoadCycles = 24000; // dlopen + symbol search
constexpr double kErrnoConvertCycles = 35;

} // namespace

void
switchPersona(binfmt::UserEnv &env, kernel::Persona target)
{
    kernel::TrapClass cls =
        env.thread.persona() == kernel::Persona::Ios
            ? kernel::TrapClass::XnuBsd
            : kernel::TrapClass::LinuxSyscall;
    env.kernel.trap(env.thread, cls, kernel::sysno::SET_PERSONA,
                    kernel::makeArgs(static_cast<std::uint64_t>(target)));
}

Diplomat::Diplomat(std::string symbol_name, Resolver resolver)
    : name_(std::move(symbol_name)), resolver_(std::move(resolver))
{}

const binfmt::Symbol *
Diplomat::resolveOnce(binfmt::UserEnv &env)
{
    if (const binfmt::Symbol *sym =
            cached_.load(std::memory_order_acquire))
        return sym;
    std::lock_guard<std::mutex> lock(resolveMu_);
    // A racing first caller may have resolved it while we waited; it
    // paid for the load. A failed resolution leaves cached_ null, so
    // the next call retries (and pays) again.
    if (const binfmt::Symbol *sym =
            cached_.load(std::memory_order_relaxed))
        return sym;
    // Step 1: load the domestic library via the cross-compiled ELF
    // loader and remember the entry point.
    charge(env.kernel.profile().cyclesToNs(kFirstLoadCycles));
    const binfmt::Symbol *sym = resolver_(env);
    if (!sym)
        warn("diplomat ", name_, ": domestic symbol not found");
    cached_.store(sym, std::memory_order_release);
    return sym;
}

DiplomatStats
Diplomat::stats() const
{
    DiplomatStats s;
    s.calls = calls_.load(std::memory_order_relaxed);
    s.batchedCalls = batchedCalls_.load(std::memory_order_relaxed);
    return s;
}

void
Diplomat::convertErrno(binfmt::UserEnv &env)
{
    // Step 8: propagate errno from the domestic TLS area into the
    // foreign one, translating the value's vocabulary.
    charge(env.kernel.profile().cyclesToNs(kErrnoConvertCycles));
    persona::ThreadTls &tls = persona::ThreadTls::of(env.thread);
    int linux_errno =
        tls.area(kernel::Persona::Android).errnoValue();
    tls.area(kernel::Persona::Ios)
        .setErrno(xnu::linuxErrnoToXnu(linux_errno));
}

binfmt::Value
Diplomat::call(binfmt::UserEnv &env, std::vector<binfmt::Value> &args)
{
    calls_.fetch_add(1, std::memory_order_relaxed);
    kernel::Persona caller = env.thread.persona();

    const binfmt::Symbol *sym = resolveOnce(env); // step 1
    if (!sym)
        return binfmt::Value{};

    // Step 2: stash arguments across the switch.
    charge(env.kernel.profile().cyclesToNs(kMarshalPerArgCycles *
                                           (1.0 + args.size())));

    switchPersona(env, kernel::Persona::Android); // step 3
    // Step 4 (restore args) is folded into the marshal charge above.
    binfmt::Value rv = sym->fn(env, args);        // steps 5 + 6
    switchPersona(env, caller);                   // step 7
    convertErrno(env);                            // step 8
    return rv;                                    // step 9
}

binfmt::Value
Diplomat::callBatched(binfmt::UserEnv &env,
                      std::vector<std::vector<binfmt::Value>> &batch)
{
    batchedCalls_.fetch_add(batch.size(), std::memory_order_relaxed);
    kernel::Persona caller = env.thread.persona();

    const binfmt::Symbol *sym = resolveOnce(env);
    if (!sym)
        return binfmt::Value{};

    // One persona round trip amortised over the whole batch — the
    // aggregation optimisation the paper leaves to future work.
    switchPersona(env, kernel::Persona::Android);
    binfmt::Value rv;
    for (auto &args : batch) {
        charge(env.kernel.profile().cyclesToNs(kMarshalPerArgCycles *
                                               (1.0 + args.size())));
        rv = sym->fn(env, args);
    }
    switchPersona(env, caller);
    convertErrno(env);
    return rv;
}

DiplomaticLibrary::DiplomaticLibrary(binfmt::LibraryRegistry &registry,
                                     std::string domestic_lib,
                                     std::vector<std::string> symbols)
{
    if (symbols.empty()) {
        if (const binfmt::LibraryImage *img = registry.find(domestic_lib))
            symbols = img->exports.names();
        else
            warn("diplomatic library: unknown domestic library ",
                 domestic_lib);
    }
    for (const std::string &sym : symbols) {
        Diplomat::Resolver resolver =
            [&registry, domestic_lib,
             sym](binfmt::UserEnv &) -> const binfmt::Symbol * {
            binfmt::LibraryImage *img = registry.find(domestic_lib);
            return img ? img->exports.find(sym) : nullptr;
        };
        diplomats_.push_back(
            std::make_unique<Diplomat>(sym, std::move(resolver)));
    }
}

Diplomat *
DiplomaticLibrary::find(const std::string &name)
{
    for (const auto &d : diplomats_)
        if (d->name() == name)
            return d.get();
    return nullptr;
}

binfmt::SymbolTable
DiplomaticLibrary::exports()
{
    binfmt::SymbolTable table;
    for (const auto &d : diplomats_) {
        Diplomat *raw = d.get();
        table.add(raw->name(),
                  [raw](binfmt::UserEnv &env,
                        std::vector<binfmt::Value> &args) {
                      return raw->call(env, args);
                  });
    }
    return table;
}

std::uint64_t
DiplomaticLibrary::totalCalls() const
{
    std::uint64_t n = 0;
    for (const auto &d : diplomats_) {
        DiplomatStats s = d->stats();
        n += s.calls + s.batchedCalls;
    }
    return n;
}

} // namespace cider::diplomat
