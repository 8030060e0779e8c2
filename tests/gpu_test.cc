/**
 * @file
 * Simulated-GPU tests: buffers, command execution, fences (with the
 * Cider fence bug), the Linux driver ioctl frontends, and the lazy
 * pixels against a naive pixel model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "base/cost_clock.h"
#include "gpu/sim_gpu.h"
#include "hw/device_profile.h"
#include "kernel/kernel.h"

namespace cider::gpu {
namespace {

class GpuTest : public ::testing::Test
{
  protected:
    GpuTest()
        : kernel_(hw::DeviceProfile::nexus7()), gpu_(kernel_.profile())
    {
        proc_ = &kernel_.createProcess("gfx");
        scope_ = std::make_unique<kernel::ThreadScope>(
            proc_->mainThread());
    }

    kernel::Kernel kernel_;
    SimGpu gpu_;
    kernel::Process *proc_;
    std::unique_ptr<kernel::ThreadScope> scope_;
};

TEST_F(GpuTest, BufferLifecycle)
{
    BufferPtr buf = gpu_.buffers().create(64, 32);
    EXPECT_EQ(buf->pixels.size(), 64u * 32u);
    EXPECT_EQ(gpu_.buffers().find(buf->id), buf);
    EXPECT_EQ(gpu_.buffers().liveCount(), 1u);
    EXPECT_TRUE(gpu_.buffers().destroy(buf->id));
    EXPECT_FALSE(gpu_.buffers().destroy(buf->id));
    EXPECT_EQ(gpu_.buffers().find(buf->id), nullptr);
}

TEST_F(GpuTest, ClearFillsTargetWithClearColor)
{
    BufferPtr buf = gpu_.buffers().create(8, 8);
    std::vector<GpuCommand> cmds(2);
    cmds[0].op = GpuOp::ClearColor;
    cmds[0].f0 = 1.0; // red
    cmds[1].op = GpuOp::Clear;
    cmds[1].target = buf->id;
    gpu_.submit(cmds);
    EXPECT_EQ(buf->pixels[0], 0xffff0000u);
    EXPECT_EQ(gpu_.stats().fragments, 64u);
}

TEST_F(GpuTest, DrawChargesVerticesAndFragments)
{
    BufferPtr buf = gpu_.buffers().create(128, 128);
    std::vector<GpuCommand> cmds(1);
    cmds[0].op = GpuOp::DrawArrays;
    cmds[0].a = 300;
    cmds[0].target = buf->id;

    std::uint64_t cost = measureVirtual([&] { gpu_.submit(cmds); });
    const auto &p = kernel_.profile();
    EXPECT_GE(cost, p.gpuPerCommandNs + 300 * p.gpuPerVertexNs);
    EXPECT_EQ(gpu_.stats().vertices, 300u);
    // Pixels were actually touched.
    bool touched = false;
    for (std::uint32_t px : buf->pixels)
        if (px != 0)
            touched = true;
    EXPECT_TRUE(touched);
}

TEST_F(GpuTest, FenceBugMultipliesStall)
{
    std::vector<GpuCommand> cmds(2);
    cmds[0].op = GpuOp::FenceInsert;
    cmds[0].a = 1;
    cmds[1].op = GpuOp::FenceWait;
    cmds[1].a = 1;

    std::uint64_t healthy = measureVirtual([&] { gpu_.submit(cmds); });
    gpu_.setFenceBug(true);
    std::uint64_t buggy = measureVirtual([&] { gpu_.submit(cmds); });
    // The broken fence support stalls several periods longer.
    EXPECT_GE(buggy, healthy + 4 * kernel_.profile().gpuFenceNs);
    EXPECT_EQ(gpu_.stats().fenceWaits, 2u);
}

TEST_F(GpuTest, GpuDeviceIoctlSubmitAndStats)
{
    GpuDevice dev(gpu_);
    kernel::Thread &t = proc_->mainThread();

    CreateBufferArgs create;
    create.width = 16;
    create.height = 16;
    ASSERT_TRUE(dev.ioctl(t, GpuDevice::kIoctlCreateBuffer, &create)
                    .ok());
    EXPECT_NE(create.outId, 0u);

    std::vector<GpuCommand> cmds(1);
    cmds[0].op = GpuOp::DrawArrays;
    cmds[0].a = 12;
    cmds[0].target = create.outId;
    ASSERT_TRUE(dev.ioctl(t, GpuDevice::kIoctlSubmit, &cmds).ok());

    GpuStats stats;
    ASSERT_TRUE(dev.ioctl(t, GpuDevice::kIoctlStats, &stats).ok());
    EXPECT_EQ(stats.vertices, 12u);

    EXPECT_EQ(dev.ioctl(t, 0x1234, nullptr).err, kernel::lnx::INVAL);
    EXPECT_EQ(dev.ioctl(t, GpuDevice::kIoctlSubmit, nullptr).err,
              kernel::lnx::FAULT);
}

TEST_F(GpuTest, FramebufferPresentCopiesPixels)
{
    FramebufferDevice fb(gpu_, 32, 32);
    kernel::Thread &t = proc_->mainThread();

    gpu::FbInfo info;
    ASSERT_TRUE(fb.ioctl(t, FramebufferDevice::kIoctlGetInfo, &info)
                    .ok());
    EXPECT_EQ(info.width, 32u);

    BufferPtr buf = gpu_.buffers().create(32, 32);
    std::span<std::uint32_t> px = buf->mutablePixels();
    std::fill(px.begin(), px.end(), 0x12345678u);
    ASSERT_TRUE(fb.ioctl(t, FramebufferDevice::kIoctlPresent,
                         reinterpret_cast<void *>(
                             static_cast<std::uintptr_t>(buf->id)))
                    .ok());
    EXPECT_EQ(fb.presentCount(), 1u);
    EXPECT_EQ(fb.frontBuffer().pixels[100], 0x12345678u);

    // Presenting a bogus buffer fails.
    EXPECT_EQ(fb.ioctl(t, FramebufferDevice::kIoctlPresent,
                       reinterpret_cast<void *>(
                           static_cast<std::uintptr_t>(0x7777)))
                  .err,
              kernel::lnx::INVAL);
}

/**
 * The pixels a naive GPU would hold: every clear fills, every draw
 * XORs its stride pattern, every present copies. Whatever a read of
 * the lazy SimGpu returns must match it.
 */
struct NaiveModel
{
    std::vector<std::vector<std::uint32_t>> buffers;
    std::vector<std::uint32_t> front;
    std::uint32_t clearColor = 0xff000000;

    void
    draw(std::vector<std::uint32_t> &px, std::uint64_t vertices)
    {
        std::uint64_t fragments =
            std::min<std::uint64_t>(vertices * 24, px.size());
        std::size_t stride =
            std::max<std::size_t>(1, px.size() / (fragments + 1));
        for (std::size_t i = 0; i < px.size(); i += stride)
            px[i] ^= 0x00ffffff & (0x9e3779b9u + i);
    }

    void
    present(const std::vector<std::uint32_t> &px)
    {
        std::copy_n(px.begin(), std::min(px.size(), front.size()),
                    front.begin());
    }
};

bool
samePixels(const PixelArray &got, const std::vector<std::uint32_t> &want)
{
    return got.size() == want.size() &&
           std::equal(got.begin(), got.end(), want.begin());
}

TEST_F(GpuTest, DamageTrackedComposeMatchesNaiveModel)
{
    // Vertex counts from a single-pixel draw to a full-buffer one.
    const std::uint64_t kVertices[] = {0, 1, 2, 6, 6, 20, 300};
    // A two-colour palette, so clears often repeat the colour.
    const double kRed[] = {0.0, 1.0};

    for (std::uint32_t seed : {1u, 2u, 3u, 4u}) {
        std::mt19937 rng(seed);
        auto pick = [&rng](std::size_t n) {
            return static_cast<std::size_t>(rng() % n);
        };
        FramebufferDevice fb(gpu_, 64, 64);
        kernel::Thread &t = proc_->mainThread();
        // Equal to the front buffer, smaller, larger and narrower.
        std::vector<BufferPtr> bufs = {
            gpu_.buffers().create(64, 64), gpu_.buffers().create(64, 64),
            gpu_.buffers().create(32, 32), gpu_.buffers().create(96, 64),
            gpu_.buffers().create(16, 256)};
        NaiveModel model;
        gpu_.submit({GpuCommand{GpuOp::ClearColor}}); // opaque black
        for (const BufferPtr &b : bufs)
            model.buffers.emplace_back(b->pixels.size(), 0);
        model.front.assign(fb.frontBuffer().pixels.size(), 0);

        // A stream of @p n draws into buffer @p which, no clears.
        auto draws = [&](std::size_t which, std::size_t n) {
            std::vector<GpuCommand> cmds(n);
            for (GpuCommand &cmd : cmds) {
                cmd.op = GpuOp::DrawArrays;
                cmd.a = kVertices[pick(std::size(kVertices))];
                cmd.target = bufs[which]->id;
                model.draw(model.buffers[which], cmd.a);
            }
            gpu_.submit(cmds);
        };
        auto present = [&](std::size_t which) {
            ASSERT_TRUE(fb.ioctl(t, FramebufferDevice::kIoctlPresent,
                                 reinterpret_cast<void *>(
                                     static_cast<std::uintptr_t>(
                                         bufs[which]->id)))
                            .ok());
            model.present(model.buffers[which]);
        };

        for (int step = 0; step < 600; ++step) {
            std::size_t which = pick(bufs.size());
            BufferPtr buf = bufs[which];
            std::vector<std::uint32_t> &want = model.buffers[which];
            switch (pick(9)) {
              case 0: { // a command stream of one to four commands
                  std::vector<GpuCommand> cmds(1 + pick(4));
                  for (GpuCommand &cmd : cmds) {
                      cmd.target = buf->id;
                      switch (pick(3)) {
                        case 0:
                          cmd.op = GpuOp::ClearColor;
                          cmd.f0 = kRed[pick(2)];
                          model.clearColor =
                              cmd.f0 > 0 ? 0xffff0000u : 0xff000000u;
                          break;
                        case 1:
                          cmd.op = GpuOp::Clear;
                          std::fill(want.begin(), want.end(),
                                    model.clearColor);
                          break;
                        default:
                          cmd.op = GpuOp::DrawArrays;
                          cmd.a = kVertices[pick(std::size(kVertices))];
                          model.draw(want, cmd.a);
                          break;
                      }
                  }
                  gpu_.submit(cmds);
                  break;
              }
              case 1:
              case 2: // presents are the hot path: weight them
                present(which);
                break;
              case 3: { // a CPU write that bypasses the GPU
                  std::size_t i = pick(want.size());
                  std::uint32_t v = model.clearColor ^ (1u << pick(24));
                  buf->mutablePixels()[i] = v;
                  want[i] = v;
                  break;
              }
              case 4: { // a screenshot is a detached copy
                  GraphicsBuffer shot = *buf;
                  ASSERT_TRUE(samePixels(shot.pixels, want));
                  shot.mutablePixels()[pick(want.size())] ^= 1;
                  break;
              }
              case 5: // more draws than the pending bound, no clear
                draws(which, PixelArray::kMaxPendingDraws + 1 +
                                 pick(PixelArray::kMaxPendingDraws));
                break;
              case 6: // reads between draws materialise mid-stream
                for (std::size_t n = 1 + pick(6); n > 0; --n) {
                    draws(which, 1 + pick(3));
                    std::size_t i = pick(want.size());
                    ASSERT_EQ(buf->pixels[i], want[i])
                        << "seed " << seed << " step " << step;
                }
                break;
              case 7: { // a CPU write over pending draws
                  if (pick(2)) { // on a solid base
                      std::vector<GpuCommand> clear(1);
                      clear[0].op = GpuOp::Clear;
                      clear[0].target = buf->id;
                      gpu_.submit(clear);
                      std::fill(want.begin(), want.end(), model.clearColor);
                  }
                  draws(which, 1 + pick(4));
                  // Every draw XORs pixel 0.
                  std::size_t i = pick(2) ? 0 : pick(want.size());
                  std::uint32_t v = model.clearColor ^ (1u << pick(24));
                  buf->mutablePixels()[i] = v;
                  want[i] = v;
                  break;
              }
              default:
                // A lazy source into a larger front (the 32x32 source)
                // or a smaller one (the 96x64 source).
                which = 2 + pick(2);
                draws(which, 1 + pick(4));
                present(which);
                break;
            }
            // Check copies, which take the base and the pending draws
            // without materialising the originals: those keep piling
            // up pending draws from step to step.
            for (std::size_t b = 0; b < bufs.size(); ++b)
                ASSERT_TRUE(samePixels(PixelArray(bufs[b]->pixels),
                                       model.buffers[b]))
                    << "seed " << seed << " step " << step << " buffer "
                    << b;
            ASSERT_TRUE(
                samePixels(PixelArray(fb.frontBuffer().pixels), model.front))
                << "seed " << seed << " step " << step;
        }
        // Reading the originals materialises them: once, at the end.
        for (std::size_t b = 0; b < bufs.size(); ++b)
            ASSERT_TRUE(samePixels(bufs[b]->pixels, model.buffers[b]))
                << "seed " << seed << " buffer " << b;
        ASSERT_TRUE(samePixels(fb.frontBuffer().pixels, model.front))
            << "seed " << seed;
        for (const BufferPtr &b : bufs)
            gpu_.buffers().destroy(b->id);
    }
}

} // namespace
} // namespace cider::gpu
