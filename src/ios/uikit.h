/**
 * @file
 * UIKit-lite: the iOS application framework layer.
 *
 * Provides the pieces the paper's input path terminates in: an
 * application object with a Mach event port, a run loop pulling
 * IOHID-style events pumped by the eventpump, and gesture
 * recognisers (tap, pan, pinch-to-zoom) that turn raw multi-touch
 * into app-level gestures — "panning, pinch-to-zoom ... and other
 * input gestures are all completely supported" (paper section 5.2).
 */

#ifndef CIDER_IOS_UIKIT_H
#define CIDER_IOS_UIKIT_H

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "android/input.h"
#include "ios/eventpump.h"
#include "ios/libsystem.h"

namespace cider::ios {

/** A UITouch as delivered to apps. */
struct Touch
{
    enum class Phase
    {
        Began,
        Moved,
        Ended,
    };

    Phase phase = Phase::Began;
    std::int32_t pointerId = 0;
    float x = 0;
    float y = 0;
    std::uint64_t timeNs = 0;
    std::int32_t pointerCount = 1;
};

/** Convert a bridged Android MotionEvent into a UITouch. */
Touch touchFromMotionEvent(const android::MotionEvent &ev);

/** Base gesture recogniser. */
class GestureRecognizer
{
  public:
    virtual ~GestureRecognizer() = default;
    virtual void handleTouch(const Touch &t) = 0;
};

/** Fires on a down+up pair with little movement. */
class TapGestureRecognizer : public GestureRecognizer
{
  public:
    using Callback = std::function<void(float x, float y)>;

    explicit TapGestureRecognizer(Callback cb, float slop = 12.0f)
        : cb_(std::move(cb)), slop_(slop)
    {}

    void handleTouch(const Touch &t) override;

  private:
    Callback cb_;
    float slop_;
    bool tracking_ = false;
    bool moved_ = false;
    float x0_ = 0, y0_ = 0;
};

/** Reports cumulative translation while a finger is down. */
class PanGestureRecognizer : public GestureRecognizer
{
  public:
    using Callback = std::function<void(float dx, float dy)>;

    explicit PanGestureRecognizer(Callback cb, float slop = 8.0f)
        : cb_(std::move(cb)), slop_(slop)
    {}

    void handleTouch(const Touch &t) override;

  private:
    Callback cb_;
    float slop_;
    bool tracking_ = false;
    bool recognised_ = false;
    float x0_ = 0, y0_ = 0;
};

/** Two-finger pinch: reports the current scale factor. */
class PinchGestureRecognizer : public GestureRecognizer
{
  public:
    using Callback = std::function<void(float scale)>;

    explicit PinchGestureRecognizer(Callback cb) : cb_(std::move(cb)) {}

    void handleTouch(const Touch &t) override;

  private:
    struct Point
    {
        float x, y;
    };

    float distance() const;

    Callback cb_;
    std::map<std::int32_t, Point> active_;
    float startDist_ = 0;
};

/** The application object (UIApplication + delegate in one). */
class UIApplication
{
  public:
    explicit UIApplication(binfmt::UserEnv &env);

    /// @{ Delegate callbacks.
    std::function<void(UIApplication &)> onLaunch;
    std::function<void(UIApplication &)> onPause;
    std::function<void(UIApplication &)> onResume;
    std::function<void(UIApplication &, const Touch &)> onTouch;
    /// @}

    void addRecognizer(std::unique_ptr<GestureRecognizer> r);

    /**
     * UIApplicationMain: create the event port, start the eventpump
     * against @p socket_path (skipped when empty — e.g. system apps),
     * and run the event loop until a Quit message arrives.
     * @return the app's exit status.
     */
    int run(const std::string &socket_path);

    /** Deliver one event-port message (exposed for unit tests). */
    void dispatch(const xnu::MachMessage &msg);

    bool paused() const { return paused_; }

    binfmt::UserEnv &env() { return env_; }
    LibSystem &libc() { return libc_; }

  private:
    binfmt::UserEnv &env_;
    LibSystem libc_;
    std::vector<std::unique_ptr<GestureRecognizer>> recognizers_;
    bool paused_ = false;
    bool quit_ = false;
};

} // namespace cider::ios

#endif // CIDER_IOS_UIKIT_H
