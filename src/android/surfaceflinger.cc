#include "android/surfaceflinger.h"

#include "base/logging.h"
#include "kernel/kernel.h"

namespace cider::android {

SurfaceFlinger::SurfaceFlinger(gpu::SimGpu &gpu,
                               gpu::FramebufferDevice &fb)
    : gpu_(gpu), fb_(fb)
{
    scanout_ = gpu_.buffers().create(fb.width(), fb.height());
}

int
SurfaceFlinger::createLayer(const std::string &owner, std::uint32_t width,
                            std::uint32_t height, int z)
{
    gpu::BufferPtr buf = gpu_.buffers().create(width, height);
    std::lock_guard<std::mutex> lock(mu_);
    Layer layer;
    layer.id = nextLayerId_++;
    layer.owner = owner;
    layer.bufferId = buf->id;
    layer.ownBufferId = buf->id;
    layer.z = z;
    layers_[layer.id] = layer;
    return layer.id;
}

bool
SurfaceFlinger::setLayerBuffer(int layer_id, std::uint32_t buffer_id)
{
    if (!gpu_.buffers().find(buffer_id))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = layers_.find(layer_id);
    if (it == layers_.end())
        return false;
    it->second.bufferId = buffer_id;
    return true;
}

void
SurfaceFlinger::removeLayer(int layer_id)
{
    std::uint32_t own = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = layers_.find(layer_id);
        if (it == layers_.end())
            return;
        own = it->second.ownBufferId;
        layers_.erase(it);
    }
    gpu_.buffers().destroy(own);
}

void
SurfaceFlinger::setVisible(int layer_id, bool visible)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = layers_.find(layer_id);
    if (it != layers_.end())
        it->second.visible = visible;
}

void
SurfaceFlinger::queueBuffer(int layer_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = layers_.find(layer_id);
    if (it != layers_.end())
        it->second.dirty = true;
}

gpu::BufferPtr
SurfaceFlinger::layerBuffer(int layer_id) const
{
    std::uint32_t buffer_id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = layers_.find(layer_id);
        if (it == layers_.end())
            return nullptr;
        buffer_id = it->second.bufferId;
    }
    return gpu_.buffers().find(buffer_id);
}

std::size_t
SurfaceFlinger::layerCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return layers_.size();
}

std::vector<SurfaceFlinger::Layer>
SurfaceFlinger::layersOwnedBy(const std::string &owner_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Layer> out;
    for (const auto &[id, layer] : layers_)
        if (layer.owner.rfind(owner_prefix, 0) == 0)
            out.push_back(layer);
    return out;
}

int
SurfaceFlinger::composeFrame(binfmt::UserEnv &env)
{
    // Build one composition pass: sample each visible layer as a
    // textured quad into the scanout target.
    std::vector<gpu::GpuCommand> cmds;
    int composed = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        gpu::GpuCommand clear;
        clear.op = gpu::GpuOp::Clear;
        clear.target = scanout_->id;
        cmds.push_back(clear);
        for (auto &[id, layer] : layers_) {
            if (!layer.visible)
                continue;
            gpu::GpuCommand bind;
            bind.op = gpu::GpuOp::BindTexture;
            bind.a = layer.bufferId;
            cmds.push_back(bind);
            gpu::GpuCommand draw;
            draw.op = gpu::GpuOp::DrawArrays;
            draw.a = 6; // two triangles
            draw.target = scanout_->id;
            cmds.push_back(draw);
            layer.dirty = false;
            ++composed;
        }
    }
    gpu_.submit(cmds);

    // Present the scanout buffer through the Linux display driver.
    kernel::SyscallResult r = fb_.ioctl(
        env.thread, gpu::FramebufferDevice::kIoctlPresent,
        reinterpret_cast<void *>(
            static_cast<std::uintptr_t>(scanout_->id)));
    if (!r.ok())
        warn("surfaceflinger: present failed with errno ", r.err);
    std::lock_guard<std::mutex> lock(mu_);
    ++frames_;
    return composed;
}

gpu::GraphicsBuffer
SurfaceFlinger::screenshot(int layer_id) const
{
    gpu::BufferPtr buf = layerBuffer(layer_id);
    if (!buf)
        return {};
    return *buf;
}

} // namespace cider::android
