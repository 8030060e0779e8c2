/**
 * @file
 * libGLESv2: Android's OpenGL ES client library.
 *
 * The app-facing API is the standardised one; the *implementation*
 * talks to the GPU through device-specific ioctls on /dev/nvhost —
 * the proprietary interface the paper says cannot be reimplemented
 * for a foreign stack, which is why iOS apps reach this exact library
 * through diplomats (paper section 5.3). Calls buffer commands in
 * user space and flush on glFlush/glFinish/swap, so an individual GL
 * call is cheap — making the per-call diplomat overhead the dominant
 * foreign-path cost, as in Figure 6's 3D results.
 */

#ifndef CIDER_ANDROID_GLES_H
#define CIDER_ANDROID_GLES_H

#include <vector>

#include "binfmt/program.h"
#include "gpu/sim_gpu.h"

namespace cider::android {

/** Per-process GL client state (ProcessSlot::GlesState). */
struct GlState
{
    int gpuFd = -1;
    std::uint32_t boundTarget = 0; ///< current render-target buffer id
    std::uint32_t boundTexture = 0;
    std::uint32_t program = 0;
    std::uint64_t nextFence = 1;
    std::uint64_t nextName = 1; ///< gen'd texture/buffer names
    std::vector<gpu::GpuCommand> pending;
    int lastError = 0;
};

/** Fetch (creating) the calling process's GL state. */
GlState &glState(binfmt::UserEnv &env);

/** Flush pending commands to the GPU via the driver ioctl. */
void glFlushPending(binfmt::UserEnv &env);

/** Set the render target (wired by EGL's MakeCurrent). */
void glSetRenderTarget(binfmt::UserEnv &env, std::uint32_t buffer_id);

/**
 * Build the libGLESv2.so image: the standard GL ES 2.0 entry points
 * (35 symbols), each a NativeFn over the per-process GlState.
 */
binfmt::LibraryImage makeGlesLibrary();

/** The export list (used by tests and the diplomat generator). */
std::vector<std::string> glesExportNames();

} // namespace cider::android

#endif // CIDER_ANDROID_GLES_H
