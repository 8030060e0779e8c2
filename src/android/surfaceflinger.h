/**
 * @file
 * SurfaceFlinger: the Android composition service.
 *
 * Apps (and, through CiderPress, proxied iOS apps) render into layer
 * buffers; SurfaceFlinger composites every visible layer into its
 * scanout buffer with the GPU and presents it through the Linux
 * framebuffer driver. Allocating iOS window memory through this
 * service is what lets "Cider manage the iOS display in the same
 * manner that all Android app windows are managed" (paper
 * section 5.3).
 */

#ifndef CIDER_ANDROID_SURFACEFLINGER_H
#define CIDER_ANDROID_SURFACEFLINGER_H

#include <map>
#include <mutex>
#include <string>

#include "binfmt/program.h"
#include "gpu/sim_gpu.h"

namespace cider::android {

class SurfaceFlinger
{
  public:
    struct Layer
    {
        int id = 0;
        std::string owner;
        std::uint32_t bufferId = 0;
        /** The window memory createLayer allocated, destroyed with the
         *  layer even after a client buffer replaced it. */
        std::uint32_t ownBufferId = 0;
        int z = 0;
        bool visible = true;
        bool dirty = false;
    };

    SurfaceFlinger(gpu::SimGpu &gpu, gpu::FramebufferDevice &fb);

    /** Create a layer with freshly allocated window memory. */
    int createLayer(const std::string &owner, std::uint32_t width,
                    std::uint32_t height, int z = 0);

    /** Attach client-allocated memory (an IOSurface) to a layer. */
    bool setLayerBuffer(int layer_id, std::uint32_t buffer_id);

    /** Remove a layer and destroy its own window memory. A client
     *  buffer attached with setLayerBuffer stays alive. */
    void removeLayer(int layer_id);
    void setVisible(int layer_id, bool visible);

    /** Mark a layer's buffer ready for the next composition. */
    void queueBuffer(int layer_id);

    gpu::BufferPtr layerBuffer(int layer_id) const;
    std::size_t layerCount() const;

    /** Layers whose owner name starts with @p owner_prefix. */
    std::vector<Layer>
    layersOwnedBy(const std::string &owner_prefix) const;

    /**
     * Compose all visible layers into the scanout buffer and present
     * it to the framebuffer. Runs on the calling simulated thread.
     * @return number of layers composed.
     */
    int composeFrame(binfmt::UserEnv &env);

    /** Copy of a layer's pixels (recents-list screenshots). */
    gpu::GraphicsBuffer screenshot(int layer_id) const;

    std::uint64_t framesComposed() const { return frames_; }

  private:
    gpu::SimGpu &gpu_;
    gpu::FramebufferDevice &fb_;
    gpu::BufferPtr scanout_;
    mutable std::mutex mu_;
    std::map<int, Layer> layers_;
    int nextLayerId_ = 1;
    std::uint64_t frames_ = 0;
};

} // namespace cider::android

#endif // CIDER_ANDROID_SURFACEFLINGER_H
