/**
 * @file
 * SurfaceFlinger unit tests: layer lifecycle, client-buffer attach,
 * composition, visibility, screenshots, and concurrent composition
 * and screenshots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "android/surfaceflinger.h"
#include "hw/device_profile.h"
#include "kernel/kernel.h"

namespace cider::android {
namespace {

class FlingerTest : public ::testing::Test
{
  protected:
    FlingerTest()
        : kernel_(hw::DeviceProfile::nexus7()), gpu_(kernel_.profile()),
          fb_(gpu_, 64, 64), flinger_(gpu_, fb_)
    {
        proc_ = &kernel_.createProcess("compositor");
        scope_ = std::make_unique<kernel::ThreadScope>(
            proc_->mainThread());
        env_ = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{kernel_, proc_->mainThread(), {}});
    }

    kernel::Kernel kernel_;
    gpu::SimGpu gpu_;
    gpu::FramebufferDevice fb_;
    SurfaceFlinger flinger_;
    kernel::Process *proc_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::unique_ptr<binfmt::UserEnv> env_;
};

TEST_F(FlingerTest, LayerLifecycle)
{
    std::size_t baseline = gpu_.buffers().liveCount();
    int id = flinger_.createLayer("app", 32, 32);
    EXPECT_GT(id, 0);
    EXPECT_EQ(flinger_.layerCount(), 1u);
    std::vector<SurfaceFlinger::Layer> owned = flinger_.layersOwnedBy("app");
    ASSERT_EQ(owned.size(), 1u);
    EXPECT_EQ(owned[0].id, id);
    EXPECT_EQ(owned[0].owner, "app");

    gpu::BufferPtr buf = flinger_.layerBuffer(id);
    ASSERT_NE(buf, nullptr);
    EXPECT_EQ(buf->width, 32u);

    EXPECT_EQ(gpu_.buffers().liveCount(), baseline + 1);

    flinger_.removeLayer(id);
    EXPECT_EQ(flinger_.layerCount(), 0u);
    EXPECT_EQ(flinger_.layerBuffer(id), nullptr);
    // The layer's window memory went with it.
    EXPECT_EQ(gpu_.buffers().liveCount(), baseline);
}

TEST_F(FlingerTest, AttachClientBufferZeroCopy)
{
    int id = flinger_.createLayer("ios-app", 16, 16);
    gpu::BufferPtr iosurface = gpu_.buffers().create(16, 16);
    ASSERT_TRUE(flinger_.setLayerBuffer(id, iosurface->id));
    // The layer now *is* the IOSurface: no copy happened.
    EXPECT_EQ(flinger_.layerBuffer(id), iosurface);
    EXPECT_FALSE(flinger_.setLayerBuffer(id, 0x999));
    EXPECT_FALSE(flinger_.setLayerBuffer(0x999, iosurface->id));

    // Removing the layer frees its own window memory only: the
    // IOSurface belongs to its client and stays registered.
    std::size_t live = gpu_.buffers().liveCount();
    flinger_.removeLayer(id);
    EXPECT_EQ(gpu_.buffers().liveCount(), live - 1);
    EXPECT_EQ(gpu_.buffers().find(iosurface->id), iosurface);
}

TEST_F(FlingerTest, ComposeCountsVisibleLayersOnly)
{
    int a = flinger_.createLayer("a", 8, 8);
    int b = flinger_.createLayer("b", 8, 8);
    flinger_.setVisible(b, false);
    EXPECT_EQ(flinger_.composeFrame(*env_), 1);
    flinger_.setVisible(b, true);
    EXPECT_EQ(flinger_.composeFrame(*env_), 2);
    EXPECT_EQ(flinger_.framesComposed(), 2u);
    EXPECT_EQ(fb_.presentCount(), 2u);
    (void)a;
}

TEST_F(FlingerTest, ComposePushesPixelsToScanout)
{
    int id = flinger_.createLayer("painter", 64, 64);
    gpu::BufferPtr buf = flinger_.layerBuffer(id);
    std::span<std::uint32_t> px = buf->mutablePixels();
    std::fill(px.begin(), px.end(), 0xff112233u);
    flinger_.queueBuffer(id);
    flinger_.composeFrame(*env_);
    // Something non-zero landed on the framebuffer.
    bool lit = false;
    for (std::uint32_t px : fb_.frontBuffer().pixels)
        if (px != 0)
            lit = true;
    EXPECT_TRUE(lit);
}

TEST_F(FlingerTest, LayersOwnedByPrefix)
{
    flinger_.createLayer("ios-app.1", 8, 8);
    flinger_.createLayer("ios-app.1:eagl", 8, 8);
    flinger_.createLayer("other", 8, 8);
    EXPECT_EQ(flinger_.layersOwnedBy("ios-app.1").size(), 2u);
    EXPECT_EQ(flinger_.layersOwnedBy("nobody").size(), 0u);
}

TEST_F(FlingerTest, ScreenshotCopiesLayer)
{
    int id = flinger_.createLayer("shot", 4, 4);
    gpu::BufferPtr buf = flinger_.layerBuffer(id);
    buf->mutablePixels()[5] = 0xabcdef01u;
    gpu::GraphicsBuffer shot = flinger_.screenshot(id);
    EXPECT_EQ(shot.pixels[5], 0xabcdef01u);
    // It's a copy: mutating the shot leaves the layer alone.
    shot.mutablePixels()[5] = 0;
    EXPECT_EQ(buf->pixels[5], 0xabcdef01u);
    EXPECT_EQ(flinger_.screenshot(0x777).width, 0u);
}

/** FNV-1a over a buffer's pixels, one 32-bit word at a time. */
template <typename Pixels>
std::uint64_t
hashPixels(const Pixels &pixels)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint32_t px : pixels)
        h = (h ^ px) * 1099511628211ull;
    return h;
}

TEST_F(FlingerTest, ScreenshotWhileLayerDraws)
{
    constexpr int kStreams = 200;
    constexpr int kShots = 200;
    int id = flinger_.createLayer("drawer", 64, 32);
    gpu::BufferPtr buf = flinger_.layerBuffer(id);
    // The pixels a naive GPU would hold after the drawer's streams.
    std::vector<std::uint32_t> want(buf->pixels.size(), 0);
    // The hash of the model after every command the drawer has
    // submitted or is about to submit, from the zero buffer on: a
    // screenshot may show any of these states, and nothing else.
    std::mutex statesMu;
    std::unordered_set<std::uint64_t> states = {hashPixels(want)};

    std::thread drawer([&] {
        std::mt19937 rng(7);
        std::uint32_t color = 0xff000000;
        for (int s = 0; s < kStreams; ++s) {
            std::vector<gpu::GpuCommand> cmds;
            std::vector<std::uint64_t> after;
            auto add = [&](gpu::GpuOp op) -> gpu::GpuCommand & {
                cmds.emplace_back();
                cmds.back().op = op;
                cmds.back().target = buf->id;
                return cmds.back();
            };
            if (rng() % 2) {
                add(gpu::GpuOp::ClearColor).f1 = rng() % 2;
                color = cmds.back().f1 > 0 ? 0xff00ff00u : 0xff000000u;
                add(gpu::GpuOp::Clear);
                std::fill(want.begin(), want.end(), color);
                after.push_back(hashPixels(want));
            }
            // Now and then a run past the pending bound, so the drawer
            // also writes the stored pixels.
            std::size_t n = rng() % 8 == 0
                                ? gpu::PixelArray::kMaxPendingDraws + 8
                                : 1 + rng() % 4;
            for (std::size_t d = 0; d < n; ++d) {
                std::uint64_t vertices = rng() % 3 == 0 ? 300 : rng() % 20;
                add(gpu::GpuOp::DrawArrays).a = vertices;
                std::uint64_t fragments =
                    std::min<std::uint64_t>(vertices * 24, want.size());
                std::size_t stride =
                    std::max<std::size_t>(1, want.size() / (fragments + 1));
                for (std::size_t i = 0; i < want.size(); i += stride)
                    want[i] ^= 0x00ffffff & (0x9e3779b9u + i);
                after.push_back(hashPixels(want));
            }
            {
                std::lock_guard<std::mutex> lock(statesMu);
                states.insert(after.begin(), after.end());
            }
            gpu_.submit(cmds);
        }
    });
    for (int s = 0; s < kShots; ++s) {
        gpu::GraphicsBuffer shot = flinger_.screenshot(id);
        EXPECT_EQ(shot.pixels.size(), buf->pixels.size());
        std::uint64_t h = hashPixels(shot.pixels);
        std::lock_guard<std::mutex> lock(statesMu);
        EXPECT_EQ(states.count(h), 1u)
            << "screenshot " << s << " shows a torn or unknown state";
    }
    drawer.join();

    gpu::GraphicsBuffer shot = flinger_.screenshot(id);
    EXPECT_TRUE(std::equal(shot.pixels.begin(), shot.pixels.end(),
                           want.begin(), want.end()));
}

/** A GPU, display and compositor of their own, with a wallpaper and
 *  @p apps app layers; the odd layer count keeps the composed draw
 *  pattern from XORing itself away. */
struct Stack
{
    Stack(const hw::DeviceProfile &profile, int apps)
        : gpu(profile), fb(gpu, 320, 200), flinger(gpu, fb)
    {
        flinger.createLayer("wallpaper", 320, 200, -1);
        for (int i = 0; i < apps; ++i)
            layers.push_back(
                flinger.createLayer("app." + std::to_string(i), 16, 16, i));
    }

    gpu::SimGpu gpu;
    gpu::FramebufferDevice fb;
    SurfaceFlinger flinger;
    std::vector<int> layers;
};

TEST_F(FlingerTest, ConcurrentComposesMatchSerialComposition)
{
    constexpr int kThreads = 4;
    constexpr int kFrames = 25;
    Stack shared(kernel_.profile(), kThreads);
    std::vector<kernel::Thread *> apps;
    for (int i = 0; i < kThreads; ++i)
        apps.push_back(
            &kernel_.createProcess("app." + std::to_string(i)).mainThread());

    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i)
        workers.emplace_back([&, i] {
            kernel::ThreadScope scope(*apps[i]);
            binfmt::UserEnv env{kernel_, *apps[i], {}};
            for (int f = 0; f < kFrames; ++f) {
                shared.flinger.queueBuffer(shared.layers[i]);
                shared.flinger.composeFrame(env);
            }
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(shared.flinger.framesComposed(), 1u * kThreads * kFrames);
    EXPECT_EQ(shared.fb.presentCount(), 1u * kThreads * kFrames);

    shared.flinger.composeFrame(*env_);
    Stack serial(kernel_.profile(), kThreads);
    serial.flinger.composeFrame(*env_);
    const gpu::PixelArray &got = shared.fb.frontBuffer().pixels;
    const gpu::PixelArray &want = serial.fb.frontBuffer().pixels;
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                            [&](std::uint32_t px) { return px != want[0]; }));
}

} // namespace
} // namespace cider::android
