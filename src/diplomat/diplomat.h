/**
 * @file
 * Diplomatic functions (paper section 4.3).
 *
 * A diplomat is a function stub inside a foreign library that runs a
 * *domestic* function on the calling thread by temporarily switching
 * the thread's persona. The nine-step arbitration implemented here is
 * the paper's, verbatim:
 *
 *  1. on first invocation, load the domestic library and cache the
 *     entry point in a locally-scoped static;
 *  2. store the arguments on the stack;
 *  3. set_persona syscall: switch kernel ABI + TLS to domestic;
 *  4. restore the arguments;
 *  5. invoke the domestic function through the cached symbol;
 *  6. save the return value;
 *  7. set_persona syscall: switch back to the foreign persona;
 *  8. convert domestic TLS values (errno) into the foreign TLS area;
 *  9. restore the return value and return to the foreign caller.
 */

#ifndef CIDER_DIPLOMAT_DIPLOMAT_H
#define CIDER_DIPLOMAT_DIPLOMAT_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "binfmt/program.h"

namespace cider::diplomat {

/**
 * One set_persona trap switching the calling thread to @p target
 * (steps 3 and 7). The trap class matches the persona issuing the
 * syscall; the Cider dispatcher accepts set_persona from every
 * persona. Every diplomatic call path switches through here.
 */
void switchPersona(binfmt::UserEnv &env, kernel::Persona target);

/** Per-diplomat call counters (ablation metric). */
struct DiplomatStats
{
    std::uint64_t calls = 0;
    std::uint64_t batchedCalls = 0;
};

class Diplomat
{
  public:
    /**
     * Resolves the domestic entry point on first use — the job of
     * the Android ELF loader that Cider cross-compiles as an iOS
     * library. Returns null if the symbol cannot be found.
     */
    using Resolver =
        std::function<const binfmt::Symbol *(binfmt::UserEnv &)>;

    Diplomat(std::string symbol_name, Resolver resolver);

    /** Run the full arbitration for one call. */
    binfmt::Value call(binfmt::UserEnv &env,
                       std::vector<binfmt::Value> &args);

    /**
     * Aggregated-call variant (the paper's proposed future-work
     * optimisation): one persona round trip amortised over
     * @p batch invocations of the domestic function.
     */
    binfmt::Value callBatched(binfmt::UserEnv &env,
                              std::vector<std::vector<binfmt::Value>> &batch);

    const std::string &name() const { return name_; }
    DiplomatStats stats() const;

  private:
    const binfmt::Symbol *resolveOnce(binfmt::UserEnv &env);
    void convertErrno(binfmt::UserEnv &env);

    std::string name_;
    Resolver resolver_;
    /**
     * Step 1's "locally-scoped static variable". One diplomat serves
     * every thread of the system: the resolved entry point is read
     * without a lock, and resolveMu_ makes the first callers resolve
     * (and pay for the load) exactly once.
     */
    std::atomic<const binfmt::Symbol *> cached_{nullptr};
    std::mutex resolveMu_;
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> batchedCalls_{0};
};

/**
 * A foreign library whose every export is a diplomat into a domestic
 * library — how Cider replaces the whole iOS OpenGL ES library.
 */
class DiplomaticLibrary
{
  public:
    /**
     * Wrap @p domestic_lib (by name, resolved through @p registry at
     * call time): each listed symbol becomes a diplomat. An empty
     * @p symbols list wraps every export.
     */
    DiplomaticLibrary(binfmt::LibraryRegistry &registry,
                      std::string domestic_lib,
                      std::vector<std::string> symbols = {});

    /** Look up a diplomat by exported name. */
    Diplomat *find(const std::string &name);

    /** Foreign-facing export table (install into an iOS dylib). */
    binfmt::SymbolTable exports();

    std::uint64_t totalCalls() const;
    std::size_t size() const { return diplomats_.size(); }

  private:
    std::vector<std::unique_ptr<Diplomat>> diplomats_;
};

} // namespace cider::diplomat

#endif // CIDER_DIPLOMAT_DIPLOMAT_H
