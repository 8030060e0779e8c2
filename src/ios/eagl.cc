#include "ios/eagl.h"

#include <memory>

#include "android/gles.h"
#include "base/cost_clock.h"
#include "diplomat/diplomat.h"
#include "kernel/kernel.h"

namespace cider::ios {

namespace {

using Args = std::vector<binfmt::Value>;

binfmt::Value
I(std::int64_t v)
{
    return binfmt::Value{v};
}

void
addBridgeDiplomat(binfmt::LibraryImage &lib,
                  binfmt::LibraryRegistry &registry, const char *name,
                  const char *bridge_symbol)
{
    binfmt::LibraryRegistry *reg = &registry;
    std::string target = bridge_symbol;
    auto d = std::make_shared<diplomat::Diplomat>(
        name,
        [reg, target](binfmt::UserEnv &) -> const binfmt::Symbol * {
            binfmt::LibraryImage *img = reg->find("libEGLbridge.so");
            return img ? img->exports.find(target) : nullptr;
        });
    lib.exports.add(name, [d](binfmt::UserEnv &env, Args &args) {
        return d->call(env, args);
    });
}

} // namespace

binfmt::LibraryImage
makeDiplomaticEaglDylib(binfmt::LibraryRegistry &domestic_libs)
{
    binfmt::LibraryImage lib;
    lib.name = "EAGL.dylib";
    lib.format = kernel::BinaryFormat::MachO;
    lib.pages = 24;

    addBridgeDiplomat(lib, domestic_libs, kEaglCreateContext,
                      "EGLBridge_createContext");
    addBridgeDiplomat(lib, domestic_libs, kEaglSetCurrent,
                      "EGLBridge_setCurrent");
    addBridgeDiplomat(lib, domestic_libs, kEaglPresent,
                      "EGLBridge_present");
    addBridgeDiplomat(lib, domestic_libs, kEaglSurfaceBuffer,
                      "EGLBridge_surfaceBuffer");
    return lib;
}

binfmt::LibraryImage
makeAppleEaglDylib(gpu::SimGpu &gpu)
{
    binfmt::LibraryImage lib;
    lib.name = "EAGL.dylib";
    lib.format = kernel::BinaryFormat::MachO;
    lib.pages = 24;

    gpu::SimGpu *g = &gpu;

    // Context table lives in process state: context id -> buffer id.
    struct AppleEagl
    {
        std::map<int, std::uint32_t> surfaces;
        int next = 1;
    };
    auto state = [](binfmt::UserEnv &env) -> AppleEagl & {
        return env.process().ext().get<AppleEagl>(
            kernel::ProcessSlot::EaglApple);
    };

    lib.exports.add(
        kEaglCreateContext,
        [g, state](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(1200));
            auto w = static_cast<std::uint32_t>(
                binfmt::valueI64(args.at(0)));
            auto h = static_cast<std::uint32_t>(
                binfmt::valueI64(args.at(1)));
            gpu::BufferPtr buf = g->buffers().create(w, h);
            AppleEagl &st = state(env);
            int id = st.next++;
            st.surfaces[id] = buf->id;
            return I(id);
        });

    lib.exports.add(
        kEaglSetCurrent, [state](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(240));
            AppleEagl &st = state(env);
            auto it = st.surfaces.find(
                static_cast<int>(binfmt::valueI64(args.at(0))));
            if (it == st.surfaces.end())
                return I(0);
            android::glSetRenderTarget(env, it->second);
            return I(1);
        });

    // Shared SpringBoard scanout buffer (composition target).
    auto scanout = std::make_shared<gpu::BufferPtr>();

    lib.exports.add(
        kEaglPresent,
        [g, state, scanout](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(480));
            AppleEagl &st = state(env);
            auto it = st.surfaces.find(
                static_cast<int>(binfmt::valueI64(args.at(0))));
            if (it == st.surfaces.end())
                return I(0);
            android::glFlushPending(env);
            // SpringBoard composes the app surface onto the screen,
            // just as SurfaceFlinger does on Android.
            if (!*scanout)
                *scanout = g->buffers().create(1024, 768);
            std::vector<gpu::GpuCommand> cmds(4);
            cmds[0].op = gpu::GpuOp::Clear;
            cmds[0].target = (*scanout)->id;
            cmds[1].op = gpu::GpuOp::BindTexture;
            cmds[1].a = it->second;
            cmds[2].op = gpu::GpuOp::DrawArrays;
            cmds[2].a = 6;
            cmds[2].target = (*scanout)->id;
            cmds[3].op = gpu::GpuOp::Present;
            cmds[3].target = (*scanout)->id;
            g->submit(cmds);
            return I(1);
        });

    lib.exports.add(
        kEaglSurfaceBuffer, [state](binfmt::UserEnv &env, Args &args) {
            AppleEagl &st = state(env);
            auto it = st.surfaces.find(
                static_cast<int>(binfmt::valueI64(args.at(0))));
            return I(it == st.surfaces.end() ? 0 : it->second);
        });

    return lib;
}

} // namespace cider::ios
