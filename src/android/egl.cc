#include "android/egl.h"

#include "android/gles.h"
#include "base/cost_clock.h"
#include "kernel/kernel.h"
#include "base/logging.h"

namespace cider::android {

namespace {

constexpr double kEglCallCycles = 240;

binfmt::Value
I(std::int64_t v)
{
    return binfmt::Value{v};
}

EglState::Surface *
surfaceOf(binfmt::UserEnv &env, std::int64_t id)
{
    EglState &st = eglState(env);
    auto it = st.surfaces.find(static_cast<int>(id));
    return it == st.surfaces.end() ? nullptr : &it->second;
}

} // namespace

EglState &
eglState(binfmt::UserEnv &env)
{
    return env.process().ext().get<EglState>(kernel::ProcessSlot::EglState);
}

binfmt::LibraryImage
makeEglLibrary(SurfaceFlinger &flinger)
{
    binfmt::LibraryImage lib;
    lib.name = "libEGL.so";
    lib.format = kernel::BinaryFormat::Elf;
    lib.pages = 96;
    lib.deps = {"libGLESv2.so", "libgralloc.so"};

    SurfaceFlinger *sf = &flinger;
    using Args = std::vector<binfmt::Value>;

    lib.exports.add("eglGetDisplay", [](binfmt::UserEnv &env, Args &) {
        charge(env.kernel.profile().cyclesToNs(kEglCallCycles));
        return I(1);
    });

    lib.exports.add("eglInitialize", [](binfmt::UserEnv &env, Args &) {
        charge(env.kernel.profile().cyclesToNs(kEglCallCycles));
        eglState(env).initialised = true;
        return I(1);
    });

    lib.exports.add(
        "eglCreateWindowSurface",
        [sf](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(4 * kEglCallCycles));
            EglState &st = eglState(env);
            auto w = static_cast<std::uint32_t>(
                binfmt::valueI64(args.at(0)));
            auto h = static_cast<std::uint32_t>(
                binfmt::valueI64(args.at(1)));
            int layer = sf->createLayer(env.process().name(), w, h);
            gpu::BufferPtr buf = sf->layerBuffer(layer);
            EglState::Surface surf;
            surf.surfaceId = st.nextSurfaceId++;
            surf.layerId = layer;
            surf.bufferId = buf ? buf->id : 0;
            st.surfaces[surf.surfaceId] = surf;
            return I(surf.surfaceId);
        });

    lib.exports.add("eglCreateContext",
                    [](binfmt::UserEnv &env, Args &) {
                        charge(env.kernel.profile().cyclesToNs(
                            2 * kEglCallCycles));
                        return I(eglState(env).nextContextId++);
                    });

    lib.exports.add(
        "eglMakeCurrent", [](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(kEglCallCycles));
            EglState::Surface *surf =
                surfaceOf(env, binfmt::valueI64(args.at(0)));
            if (!surf)
                return I(0);
            eglState(env).currentSurface = surf->surfaceId;
            glSetRenderTarget(env, surf->bufferId);
            return I(1);
        });

    lib.exports.add(
        "eglSwapBuffers", [sf](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(2 * kEglCallCycles));
            EglState::Surface *surf =
                surfaceOf(env, binfmt::valueI64(args.at(0)));
            if (!surf)
                return I(0);
            glFlushPending(env);
            sf->queueBuffer(surf->layerId);
            sf->composeFrame(env);
            return I(1);
        });

    lib.exports.add(
        "eglDestroySurface", [sf](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(kEglCallCycles));
            EglState &st = eglState(env);
            EglState::Surface *surf =
                surfaceOf(env, binfmt::valueI64(args.at(0)));
            if (!surf)
                return I(0);
            sf->removeLayer(surf->layerId);
            st.surfaces.erase(surf->surfaceId);
            return I(1);
        });

    return lib;
}

binfmt::LibraryImage
makeEglBridgeLibrary(SurfaceFlinger &flinger)
{
    binfmt::LibraryImage lib;
    lib.name = "libEGLbridge.so";
    lib.format = kernel::BinaryFormat::Elf;
    lib.pages = 32;
    lib.deps = {"libEGL.so"};

    SurfaceFlinger *sf = &flinger;
    using Args = std::vector<binfmt::Value>;

    lib.exports.add(
        "EGLBridge_createContext",
        [sf](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(5 * kEglCallCycles));
            EglState &st = eglState(env);
            st.initialised = true;
            auto w = static_cast<std::uint32_t>(
                binfmt::valueI64(args.at(0)));
            auto h = static_cast<std::uint32_t>(
                binfmt::valueI64(args.at(1)));
            int layer =
                sf->createLayer(env.process().name() + ":eagl", w, h);
            gpu::BufferPtr buf = sf->layerBuffer(layer);
            EglState::Surface surf;
            surf.surfaceId = st.nextSurfaceId++;
            surf.layerId = layer;
            surf.bufferId = buf ? buf->id : 0;
            st.surfaces[surf.surfaceId] = surf;
            return I(surf.surfaceId);
        });

    lib.exports.add(
        "EGLBridge_setCurrent", [](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(kEglCallCycles));
            EglState::Surface *surf =
                surfaceOf(env, binfmt::valueI64(args.at(0)));
            if (!surf)
                return I(0);
            eglState(env).currentSurface = surf->surfaceId;
            glSetRenderTarget(env, surf->bufferId);
            return I(1);
        });

    lib.exports.add(
        "EGLBridge_present", [sf](binfmt::UserEnv &env, Args &args) {
            charge(env.kernel.profile().cyclesToNs(2 * kEglCallCycles));
            EglState::Surface *surf =
                surfaceOf(env, binfmt::valueI64(args.at(0)));
            if (!surf)
                return I(0);
            glFlushPending(env);
            sf->queueBuffer(surf->layerId);
            sf->composeFrame(env);
            return I(1);
        });

    lib.exports.add(
        "EGLBridge_surfaceBuffer",
        [](binfmt::UserEnv &env, Args &args) {
            EglState::Surface *surf =
                surfaceOf(env, binfmt::valueI64(args.at(0)));
            return I(surf ? surf->bufferId : 0);
        });

    return lib;
}

} // namespace cider::android
