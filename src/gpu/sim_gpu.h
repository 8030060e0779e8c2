/**
 * @file
 * The simulated GPU and graphics memory.
 *
 * Both ecosystems reach this hardware, but only through their own
 * opaque interfaces: Android's GL stack drives it through
 * device-specific ioctls on the Linux driver node, and iOS reaches
 * it through I/O Kit (Mach IPC) on a real Apple device. Cider's whole
 * graphics story (paper section 5.3) is that the foreign path cannot
 * be reimplemented — so foreign apps must reach the *domestic* path
 * via diplomats. The simulator therefore exposes exactly those two
 * frontends over one SimGpu.
 *
 * Rendering is modelled, not rasterised faithfully: draws charge
 * per-vertex and per-fragment costs from the device profile and write
 * a deterministic pattern into the target buffer so tests can verify
 * that pixels actually moved.
 */

#ifndef CIDER_GPU_SIM_GPU_H
#define CIDER_GPU_SIM_GPU_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "hw/device_profile.h"
#include "kernel/device.h"

namespace cider::gpu {

/**
 * A buffer's pixels, read-only and lazy. Logically they are a base,
 * either a solid colour or the stored pixels, with the pending draws'
 * XOR patterns applied in order. The stored pixels are brought up to
 * date only when something reads them (DESIGN.md section 16). The GPU
 * writes them; any other writer goes through
 * GraphicsBuffer::mutablePixels().
 */
class PixelArray
{
  public:
    /** Past this many pending draws, a draw materialises at once. */
    static constexpr std::size_t kMaxPendingDraws = 64;

    PixelArray() = default;
    /** Copies @p other's base and pending draws under its lock. */
    PixelArray(const PixelArray &other);

    /** Never materialises: the pixel count is fixed at construction. */
    std::size_t size() const { return px_.size(); }
    const std::uint32_t &operator[](std::size_t i) const
    {
        materialise();
        return px_[i];
    }
    std::vector<std::uint32_t>::const_iterator begin() const
    {
        materialise();
        return px_.begin();
    }
    std::vector<std::uint32_t>::const_iterator end() const
    {
        materialise();
        return px_.end();
    }

  private:
    friend struct GraphicsBuffer;
    friend class SimGpu;
    friend class FramebufferDevice;

    /** @p n zero pixels. */
    explicit PixelArray(std::size_t n) : px_(n, 0) {}

    /** GpuOp::Clear: every pixel becomes @p color. */
    void fill(std::uint32_t color);
    /** GpuOp::DrawArrays: XOR the draw pattern into every stride-th
     *  pixel. */
    void xorPattern(std::size_t stride);
    /** Present: these pixels become @p src's (the first min(size) of
     *  them when the sizes differ). */
    void copyFrom(const PixelArray &src);

    /** Bring the stored pixels up to date. */
    void materialise() const;
    /** mu_ held: write the base and the pending draws into px_. */
    void applyPending() const;

    /// @{ The representation, guarded by mu_. px_ holds the base
    /// unless solid_; strides_ are the pending draws, oldest first.
    mutable std::mutex mu_;
    mutable std::vector<std::uint32_t> px_;
    mutable bool solid_ = false;
    std::uint32_t color_ = 0;
    mutable std::vector<std::size_t> strides_;
    /// @}
};

/** A shareable graphics memory buffer (gralloc / IOSurface backing). */
struct GraphicsBuffer
{
    GraphicsBuffer() = default;
    /** A @p width x @p height buffer of zero pixels. */
    GraphicsBuffer(std::uint32_t id, std::uint32_t width,
                   std::uint32_t height)
        : id(id), width(width), height(height),
          pixels(static_cast<std::size_t>(width) * height)
    {
    }

    std::uint32_t id = 0;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    /** Read-only; see mutablePixels(). */
    PixelArray pixels;

    std::size_t sizeBytes() const { return pixels.size() * 4; }

    /**
     * Writable pixels for a writer that bypasses the GPU. Materialises
     * them first. Do not hold the span across GPU commands on the
     * buffer.
     */
    std::span<std::uint32_t> mutablePixels();
};

using BufferPtr = std::shared_ptr<GraphicsBuffer>;

/**
 * Allocator/registry of graphics buffers. Shared by gralloc (Android)
 * and IOSurface (iOS) so hand-offs between the stacks are zero-copy:
 * both sides hold the same buffer object, found by id.
 */
class BufferManager
{
  public:
    BufferPtr create(std::uint32_t width, std::uint32_t height);
    BufferPtr find(std::uint32_t id) const;
    bool destroy(std::uint32_t id);
    std::size_t liveCount() const;

  private:
    mutable std::mutex mu_;
    std::map<std::uint32_t, BufferPtr> buffers_;
    std::uint32_t nextId_ = 1;
};

/** GPU command opcodes. */
enum class GpuOp
{
    ClearColor,  ///< f0..f3 = rgba
    Clear,       ///< fill target with clear colour
    DrawArrays,  ///< a = vertex count
    BindTexture, ///< a = texture buffer id
    TexImage2D,  ///< a = width, b = height (upload cost)
    UseProgram,  ///< a = program id
    SetUniform,
    FenceInsert, ///< a = fence id
    FenceWait,   ///< a = fence id
    Present,     ///< hand target to scanout
};

struct GpuCommand
{
    GpuOp op = GpuOp::Clear;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double f0 = 0, f1 = 0, f2 = 0, f3 = 0;
    std::uint32_t target = 0; ///< render-target buffer id
};

/** Counters for tests and benches. */
struct GpuStats
{
    std::uint64_t commands = 0;
    std::uint64_t vertices = 0;
    std::uint64_t fragments = 0;
    std::uint64_t fenceWaits = 0;
    std::uint64_t presents = 0;
};

class SimGpu
{
  public:
    explicit SimGpu(const hw::DeviceProfile &profile);

    /** Execute a command stream, charging the active clock. */
    void submit(const std::vector<GpuCommand> &cmds);

    BufferManager &buffers() { return buffers_; }
    GpuStats stats() const;

    /**
     * Reproduce the prototype's OpenGL ES library bug: "incorrect
     * 'fence' synchronization primitive support ... degraded our
     * graphics performance" (paper section 6.4). When enabled, every
     * fence wait stalls for several extra fence periods.
     */
    void setFenceBug(bool enabled) { fenceBug_ = enabled; }
    bool fenceBug() const { return fenceBug_; }

    const hw::DeviceProfile &profile() const { return profile_; }

  private:
    friend class FramebufferDevice;

    void execute(const GpuCommand &cmd);

    const hw::DeviceProfile &profile_;
    BufferManager buffers_;
    /**
     * Held across each submitted command stream and each framebuffer
     * present. Guards stats_, clearColor_ and FramebufferDevice's
     * present count. Each buffer's own lock is taken after it.
     */
    mutable std::mutex mu_;
    GpuStats stats_;
    std::uint32_t clearColor_ = 0xff000000;
    bool fenceBug_ = false;
};

/**
 * The Linux GPU driver node (/dev/nvhost): Android's GL stack
 * submits command streams through device-specific ioctls here.
 */
class GpuDevice : public kernel::Device
{
  public:
    /** ioctl request codes (opaque outside the domestic GL stack). */
    static constexpr std::uint64_t kIoctlSubmit = 0xc0de0001;
    static constexpr std::uint64_t kIoctlCreateBuffer = 0xc0de0002;
    static constexpr std::uint64_t kIoctlStats = 0xc0de0003;

    explicit GpuDevice(SimGpu &gpu);

    kernel::SyscallResult ioctl(kernel::Thread &t, std::uint64_t req,
                                void *arg) override;

    SimGpu &gpu() { return gpu_; }

  private:
    SimGpu &gpu_;
};

/** Argument block for kIoctlCreateBuffer. */
struct CreateBufferArgs
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint32_t outId = 0;
};

/**
 * The Linux framebuffer driver (the Nexus 7 display). Presenting
 * copies a buffer to the scanout front buffer.
 */
class FramebufferDevice : public kernel::Device
{
  public:
    static constexpr std::uint64_t kIoctlPresent = 0xfb000001;
    static constexpr std::uint64_t kIoctlGetInfo = 0xfb000002;

    FramebufferDevice(SimGpu &gpu, std::uint32_t width,
                      std::uint32_t height);

    kernel::SyscallResult ioctl(kernel::Thread &t, std::uint64_t req,
                                void *arg) override;

    const GraphicsBuffer &frontBuffer() const { return front_; }
    std::uint64_t presentCount() const;
    std::uint32_t width() const { return front_.width; }
    std::uint32_t height() const { return front_.height; }

  private:
    SimGpu &gpu_;
    GraphicsBuffer front_;
    std::uint64_t presents_ = 0;  ///< guarded by gpu_.mu_
};

/** Argument block for FramebufferDevice::kIoctlGetInfo. */
struct FbInfo
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;
};

} // namespace cider::gpu

#endif // CIDER_GPU_SIM_GPU_H
