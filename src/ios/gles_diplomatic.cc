#include "ios/gles_diplomatic.h"

#include "android/gles.h"
#include <set>

#include "base/cost_clock.h"
#include "diplomat/diplomat.h"
#include "kernel/kernel.h"

namespace cider::ios {

binfmt::MachOImage
makeForeignGlesImage()
{
    binfmt::MachOBuilder builder(binfmt::MachOFileType::Dylib);
    builder.segment("__TEXT", 380).segment("__DATA", 40);
    builder.codegen(hw::Codegen::XcodeClang);
    for (const std::string &sym : android::glesExportNames())
        builder.exportSymbol(sym);
    return builder.image();
}

binfmt::LibraryImage
makeDiplomaticGlesDylib(diplomat::DiplomatGenerator &generator,
                        kernel::Vfs &vfs, const std::string &so_dir,
                        diplomat::GeneratorReport *report,
                        bool fence_bug)
{
    binfmt::LibraryImage lib;
    lib.name = "OpenGLES.dylib";
    lib.format = kernel::BinaryFormat::MachO;
    lib.pages = 64; // only stubs remain: the real work is domestic
    lib.exports =
        generator.generate(makeForeignGlesImage(), vfs, so_dir, report);

    if (fence_bug) {
        // The prototype's "incorrect fence synchronization primitive
        // support" (paper section 6.4): the replacement library's
        // glFinish re-waits on fences that have already signalled,
        // stalling several extra fence periods per synchronisation.
        const binfmt::Symbol *finish = lib.exports.find("glFinish");
        if (finish) {
            binfmt::NativeFn inner = finish->fn;
            lib.exports.add(
                "glFinish",
                [inner](binfmt::UserEnv &env,
                        std::vector<binfmt::Value> &args) {
                    binfmt::Value rv = inner(env, args);
                    charge(5 * env.kernel.profile().gpuFenceNs);
                    return rv;
                });
        }
    }
    return lib;
}

namespace {

/** Foreign-side call queue for the aggregating library. */
struct AggState
{
    std::vector<std::pair<std::string, std::vector<binfmt::Value>>>
        pending;
};

AggState &
aggState(binfmt::UserEnv &env)
{
    return env.process().ext().get<AggState>("gles.agg");
}

/** One persona round trip replaying every queued call natively. */
binfmt::Value
aggFlush(binfmt::UserEnv &env, binfmt::LibraryRegistry *libs,
         const std::string &tail_symbol,
         std::vector<binfmt::Value> *tail_args)
{
    AggState &st = aggState(env);
    if (st.pending.empty() && tail_symbol.empty())
        return binfmt::Value{};

    binfmt::LibraryImage *gl = libs->find("libGLESv2.so");
    if (!gl)
        return binfmt::Value{};

    kernel::Persona caller = env.thread.persona();
    diplomat::switchPersona(env, kernel::Persona::Android);
    binfmt::Value rv;
    for (auto &[symbol, args] : st.pending) {
        charge(env.kernel.profile().cyclesToNs(20.0 *
                                               (1.0 + args.size())));
        if (const binfmt::Symbol *sym = gl->exports.find(symbol))
            sym->fn(env, args);
    }
    st.pending.clear();
    if (!tail_symbol.empty()) {
        if (const binfmt::Symbol *sym = gl->exports.find(tail_symbol))
            rv = sym->fn(env, *tail_args);
    }
    diplomat::switchPersona(env, caller);
    return rv;
}

} // namespace

binfmt::LibraryImage
makeAggregatingGlesDylib(binfmt::LibraryRegistry &domestic_libs,
                         bool fence_bug)
{
    binfmt::LibraryImage lib;
    lib.name = "OpenGLES.dylib";
    lib.format = kernel::BinaryFormat::MachO;
    lib.pages = 72;

    binfmt::LibraryRegistry *libs = &domestic_libs;

    // Calls whose return value the app consumes immediately cannot be
    // deferred; they act as flush points.
    const std::set<std::string> returning = {
        "glGenTextures",  "glGenBuffers",        "glCreateProgram",
        "glCreateShader", "glGetUniformLocation", "glGetError",
    };
    const std::set<std::string> syncing = {"glFlush", "glFinish"};

    for (const std::string &symbol : android::glesExportNames()) {
        bool is_returning = returning.count(symbol) > 0;
        bool is_sync = syncing.count(symbol) > 0;
        bool is_buggy_finish = fence_bug && symbol == "glFinish";
        lib.exports.add(
            symbol,
            [libs, symbol, is_returning, is_sync, is_buggy_finish](
                binfmt::UserEnv &env,
                std::vector<binfmt::Value> &args) {
                if (is_returning || is_sync) {
                    binfmt::Value rv =
                        aggFlush(env, libs, symbol, &args);
                    if (is_buggy_finish)
                        charge(5 * env.kernel.profile().gpuFenceNs);
                    return rv;
                }
                // Queue on the foreign side: tiny bookkeeping only.
                charge(env.kernel.profile().cyclesToNs(25));
                aggState(env).pending.emplace_back(symbol, args);
                return binfmt::Value{};
            });
    }
    return lib;
}

binfmt::LibraryImage
makeAppleGlesDylib()
{
    // The genuine library on an Apple device: identical app-facing
    // behaviour, native execution. Reuses the GL client logic with a
    // Mach-O identity; per-call costs come from the device profile.
    binfmt::LibraryImage lib = android::makeGlesLibrary();
    lib.name = "OpenGLES.dylib";
    lib.format = kernel::BinaryFormat::MachO;
    lib.deps.clear();
    lib.pages = 420;
    return lib;
}

} // namespace cider::ios
