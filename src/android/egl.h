/**
 * @file
 * libEGL and libEGLbridge.
 *
 * libEGL is Android's native platform glue: surfaces bind window
 * memory from SurfaceFlinger to the GL render target. libEGLbridge is
 * the custom domestic library the paper adds for Cider: Apple's EAGL
 * extensions replace EGL on iOS, so diplomatic EAGL functions call
 * into this bridge, which implements the missing functionality over
 * libEGL and SurfaceFlinger (paper section 5.3).
 */

#ifndef CIDER_ANDROID_EGL_H
#define CIDER_ANDROID_EGL_H

#include <map>

#include "android/surfaceflinger.h"
#include "binfmt/program.h"

namespace cider::android {

/** Per-process EGL state (ProcessSlot::EglState). */
struct EglState
{
    bool initialised = false;
    struct Surface
    {
        int surfaceId = 0;
        int layerId = 0;
        std::uint32_t bufferId = 0;
    };
    std::map<int, Surface> surfaces;
    int nextSurfaceId = 1;
    int currentSurface = 0;
    int nextContextId = 1;
};

EglState &eglState(binfmt::UserEnv &env);

/**
 * Build libEGL.so. Exports:
 *  - eglGetDisplay() -> 1, eglInitialize() -> 1
 *  - eglCreateWindowSurface(width, height) -> surface id
 *    (allocates a SurfaceFlinger layer for window memory)
 *  - eglCreateContext() -> context id
 *  - eglMakeCurrent(surface) -> 1 (binds the GL render target)
 *  - eglSwapBuffers(surface) -> 1 (flush + queue + compose)
 *  - eglDestroySurface(surface) -> 1
 */
binfmt::LibraryImage makeEglLibrary(SurfaceFlinger &flinger);

/**
 * Build libEGLbridge.so, the EAGL support bridge. Exports:
 *  - EGLBridge_createContext(width, height) -> surface id
 *  - EGLBridge_setCurrent(surface) -> 1
 *  - EGLBridge_present(surface) -> 1
 *  - EGLBridge_surfaceBuffer(surface) -> gralloc buffer id
 */
binfmt::LibraryImage makeEglBridgeLibrary(SurfaceFlinger &flinger);

} // namespace cider::android

#endif // CIDER_ANDROID_EGL_H
