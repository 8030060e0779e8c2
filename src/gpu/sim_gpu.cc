#include "gpu/sim_gpu.h"

#include <algorithm>

#include "base/cost_clock.h"
#include "base/logging.h"

namespace cider::gpu {

PixelArray::PixelArray(const PixelArray &other)
{
    std::lock_guard<std::mutex> lock(other.mu_);
    px_ = other.px_;
    solid_ = other.solid_;
    color_ = other.color_;
    strides_ = other.strides_;
}

void
PixelArray::fill(std::uint32_t color)
{
    std::lock_guard<std::mutex> lock(mu_);
    solid_ = true;
    color_ = color;
    strides_.clear();
}

void
PixelArray::xorPattern(std::size_t stride)
{
    std::lock_guard<std::mutex> lock(mu_);
    strides_.push_back(stride);
    if (strides_.size() > kMaxPendingDraws)
        applyPending();
}

void
PixelArray::copyFrom(const PixelArray &src)
{
    std::scoped_lock lock(mu_, src.mu_);
    if (px_.size() > src.px_.size()) {
        // The tail past src keeps this buffer's own pixels, which no
        // single base with src's draws describes: copy eagerly.
        applyPending();
        src.applyPending();
        std::copy(src.px_.begin(), src.px_.end(), px_.begin());
    } else {
        // A draw's pattern depends only on the pixel index, so the
        // first size() of src's pixels are its base's first size()
        // with the same draws applied. Element-wise: px_ itself (its
        // size) is never written after construction, so size() reads
        // it unlocked.
        solid_ = src.solid_;
        color_ = src.color_;
        strides_ = src.strides_;
        if (!solid_)
            std::copy_n(src.px_.begin(), px_.size(), px_.begin());
    }
}

void
PixelArray::applyPending() const
{
    if (solid_)
        std::fill(px_.begin(), px_.end(), color_);
    for (std::size_t stride : strides_)
        for (std::size_t i = 0; i < px_.size(); i += stride)
            px_[i] ^= 0x00ffffff & (0x9e3779b9u + i);
    solid_ = false;
    strides_.clear();
}

void
PixelArray::materialise() const
{
    std::lock_guard<std::mutex> lock(mu_);
    applyPending();
}

std::span<std::uint32_t>
GraphicsBuffer::mutablePixels()
{
    pixels.materialise();
    return pixels.px_;
}

BufferPtr
BufferManager::create(std::uint32_t width, std::uint32_t height)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_shared<GraphicsBuffer>(nextId_++, width, height);
    buffers_[buf->id] = buf;
    return buf;
}

BufferPtr
BufferManager::find(std::uint32_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buffers_.find(id);
    return it == buffers_.end() ? nullptr : it->second;
}

bool
BufferManager::destroy(std::uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.erase(id) > 0;
}

std::size_t
BufferManager::liveCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.size();
}

SimGpu::SimGpu(const hw::DeviceProfile &profile) : profile_(profile) {}

void
SimGpu::submit(const std::vector<GpuCommand> &cmds)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const GpuCommand &cmd : cmds) {
        charge(profile_.gpuPerCommandNs);
        execute(cmd);
    }
    stats_.commands += cmds.size();
}

void
SimGpu::execute(const GpuCommand &cmd)
{
    switch (cmd.op) {
      case GpuOp::ClearColor: {
          auto chan = [](double v) {
              if (v < 0)
                  v = 0;
              if (v > 1)
                  v = 1;
              return static_cast<std::uint32_t>(v * 255.0);
          };
          clearColor_ = 0xff000000 | (chan(cmd.f0) << 16) |
                        (chan(cmd.f1) << 8) | chan(cmd.f2);
          break;
      }
      case GpuOp::Clear: {
          BufferPtr buf = buffers_.find(cmd.target);
          if (buf) {
              charge(buf->pixels.size() * profile_.gpuPerFragmentPs /
                     1000);
              buf->pixels.fill(clearColor_);
              stats_.fragments += buf->pixels.size();
          }
          break;
      }
      case GpuOp::DrawArrays: {
          std::uint64_t vertices = cmd.a;
          charge(vertices * profile_.gpuPerVertexNs);
          BufferPtr buf = buffers_.find(cmd.target);
          std::uint64_t fragments = vertices * 24; // avg triangle area
          if (buf) {
              fragments = std::min<std::uint64_t>(fragments,
                                                  buf->pixels.size());
              charge(fragments * profile_.gpuPerFragmentPs / 1000);
              // Touch a deterministic pixel pattern so tests can see
              // that the draw landed.
              buf->pixels.xorPattern(std::max<std::size_t>(
                  1, buf->pixels.size() / (fragments + 1)));
          } else {
              charge(fragments * profile_.gpuPerFragmentPs / 1000);
          }
          stats_.vertices += vertices;
          stats_.fragments += fragments;
          break;
      }
      case GpuOp::BindTexture:
      case GpuOp::UseProgram:
      case GpuOp::SetUniform:
      case GpuOp::FenceInsert:
        break; // state changes and fence inserts: command cost only
      case GpuOp::TexImage2D:
        // Texture upload: per-texel transfer.
        charge(cmd.a * cmd.b * profile_.gpuPerFragmentPs / 1000);
        break;
      case GpuOp::FenceWait: {
          // The Cider prototype's broken fence support stalls the
          // pipeline; model it as several extra fence round trips.
          std::uint64_t stall = profile_.gpuFenceNs;
          if (fenceBug_)
              stall *= 6;
          charge(stall);
          ++stats_.fenceWaits;
          break;
      }
      case GpuOp::Present:
        ++stats_.presents;
        break;
    }
}

GpuStats
SimGpu::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

GpuDevice::GpuDevice(SimGpu &gpu) : Device("nvhost", "gpu"), gpu_(gpu)
{
    setProperty("vendor", "nvidia");
    setProperty("model", "tegra3");
}

kernel::SyscallResult
GpuDevice::ioctl(kernel::Thread &, std::uint64_t req, void *arg)
{
    switch (req) {
      case kIoctlSubmit: {
          auto *cmds = static_cast<std::vector<GpuCommand> *>(arg);
          if (!cmds)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          gpu_.submit(*cmds);
          return kernel::SyscallResult::success(
              static_cast<std::int64_t>(cmds->size()));
      }
      case kIoctlCreateBuffer: {
          auto *args = static_cast<CreateBufferArgs *>(arg);
          if (!args)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          BufferPtr buf = gpu_.buffers().create(args->width,
                                                args->height);
          args->outId = buf->id;
          return kernel::SyscallResult::success(buf->id);
      }
      case kIoctlStats: {
          auto *out = static_cast<GpuStats *>(arg);
          if (!out)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          *out = gpu_.stats();
          return kernel::SyscallResult::success();
      }
      default:
        return kernel::SyscallResult::failure(kernel::lnx::INVAL);
    }
}

FramebufferDevice::FramebufferDevice(SimGpu &gpu, std::uint32_t width,
                                     std::uint32_t height)
    : Device("fb0", "framebuffer"), gpu_(gpu), front_(0, width, height)
{
    setProperty("width", std::to_string(width));
    setProperty("height", std::to_string(height));
}

kernel::SyscallResult
FramebufferDevice::ioctl(kernel::Thread &, std::uint64_t req, void *arg)
{
    switch (req) {
      case kIoctlPresent: {
          std::uint32_t buf_id =
              static_cast<std::uint32_t>(reinterpret_cast<std::uintptr_t>(arg));
          BufferPtr buf = gpu_.buffers().find(buf_id);
          if (!buf)
              return kernel::SyscallResult::failure(kernel::lnx::INVAL);
          charge(std::min(front_.pixels.size(), buf->pixels.size()) *
                 gpu_.profile().gpuPerFragmentPs / 1000);
          std::lock_guard<std::mutex> lock(gpu_.mu_);
          front_.pixels.copyFrom(buf->pixels);
          ++presents_;
          return kernel::SyscallResult::success();
      }
      case kIoctlGetInfo: {
          auto *info = static_cast<FbInfo *>(arg);
          if (!info)
              return kernel::SyscallResult::failure(kernel::lnx::FAULT);
          info->width = front_.width;
          info->height = front_.height;
          return kernel::SyscallResult::success();
      }
      default:
        return kernel::SyscallResult::failure(kernel::lnx::INVAL);
    }
}

std::uint64_t
FramebufferDevice::presentCount() const
{
    std::lock_guard<std::mutex> lock(gpu_.mu_);
    return presents_;
}

} // namespace cider::gpu
