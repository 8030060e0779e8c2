#include "ios/uikit.h"

#include "base/logging.h"

namespace cider::ios {

Touch
touchFromMotionEvent(const android::MotionEvent &ev)
{
    Touch t;
    switch (ev.action) {
      case android::MotionAction::Down:
      case android::MotionAction::PointerDown:
        t.phase = Touch::Phase::Began;
        break;
      case android::MotionAction::Move:
        t.phase = Touch::Phase::Moved;
        break;
      case android::MotionAction::Up:
      case android::MotionAction::PointerUp:
        t.phase = Touch::Phase::Ended;
        break;
    }
    t.pointerId = ev.pointerId;
    t.x = ev.x;
    t.y = ev.y;
    t.timeNs = ev.timeNs;
    t.pointerCount = ev.pointerCount;
    return t;
}

void
TapGestureRecognizer::handleTouch(const Touch &t)
{
    switch (t.phase) {
      case Touch::Phase::Began:
        tracking_ = true;
        moved_ = false;
        x0_ = t.x;
        y0_ = t.y;
        break;
      case Touch::Phase::Moved:
        if (tracking_ &&
            (std::fabs(t.x - x0_) > slop_ ||
             std::fabs(t.y - y0_) > slop_))
            moved_ = true;
        break;
      case Touch::Phase::Ended:
        if (tracking_ && !moved_ && cb_)
            cb_(t.x, t.y);
        tracking_ = false;
        break;
    }
}

void
PanGestureRecognizer::handleTouch(const Touch &t)
{
    switch (t.phase) {
      case Touch::Phase::Began:
        tracking_ = true;
        recognised_ = false;
        x0_ = t.x;
        y0_ = t.y;
        break;
      case Touch::Phase::Moved: {
          if (!tracking_)
              break;
          float dx = t.x - x0_;
          float dy = t.y - y0_;
          if (!recognised_ &&
              (std::fabs(dx) > slop_ || std::fabs(dy) > slop_))
              recognised_ = true;
          if (recognised_ && cb_)
              cb_(dx, dy);
          break;
      }
      case Touch::Phase::Ended:
        tracking_ = false;
        recognised_ = false;
        break;
    }
}

float
PinchGestureRecognizer::distance() const
{
    if (active_.size() < 2)
        return 0;
    auto it = active_.begin();
    const Point &a = it->second;
    const Point &b = std::next(it)->second;
    float dx = a.x - b.x;
    float dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy);
}

void
PinchGestureRecognizer::handleTouch(const Touch &t)
{
    switch (t.phase) {
      case Touch::Phase::Began:
        active_[t.pointerId] = {t.x, t.y};
        if (active_.size() == 2)
            startDist_ = distance();
        break;
      case Touch::Phase::Moved: {
          auto it = active_.find(t.pointerId);
          if (it == active_.end())
              break;
          it->second = {t.x, t.y};
          if (active_.size() >= 2 && startDist_ > 0 && cb_)
              cb_(distance() / startDist_);
          break;
      }
      case Touch::Phase::Ended:
        active_.erase(t.pointerId);
        if (active_.size() < 2)
            startDist_ = 0;
        break;
    }
}

UIApplication::UIApplication(binfmt::UserEnv &env)
    : env_(env), libc_(env)
{}

void
UIApplication::addRecognizer(std::unique_ptr<GestureRecognizer> r)
{
    recognizers_.push_back(std::move(r));
}

void
UIApplication::dispatch(const xnu::MachMessage &msg)
{
    switch (msg.header.msgId) {
      case hidmsg::HidEvent: {
          android::MotionEvent ev;
          if (!android::parseMotionEvent(msg.body, &ev)) {
              warn("uikit: malformed HID event");
              return;
          }
          Touch t = touchFromMotionEvent(ev);
          if (onTouch)
              onTouch(*this, t);
          for (const auto &rec : recognizers_)
              rec->handleTouch(t);
          break;
      }
      case hidmsg::Lifecycle:
        if (!msg.body.empty()) {
            if (msg.body[0] == hidmsg::PauseCode) {
                paused_ = true;
                if (onPause)
                    onPause(*this);
            } else if (msg.body[0] == hidmsg::ResumeCode) {
                paused_ = false;
                if (onResume)
                    onResume(*this);
            }
        }
        break;
      case hidmsg::Quit:
        quit_ = true;
        break;
      default:
        warn("uikit: unexpected event-port message ", msg.header.msgId);
        break;
    }
}

int
UIApplication::run(const std::string &socket_path)
{
    // Every iOS app monitors a Mach port for incoming low-level
    // event notifications (paper section 5.2).
    xnu::mach_port_name_t event_port =
        libc_.machPortAllocate(xnu::PortRight::Receive);
    if (event_port == xnu::MACH_PORT_NULL)
        return 1;

    EventPump pump;
    if (!socket_path.empty() &&
        !pump.start(env_, socket_path, event_port))
        return 2;

    try {
        if (onLaunch)
            onLaunch(*this);

        while (!quit_) {
            xnu::MachMessage msg;
            xnu::kern_return_t kr =
                libc_.machMsgReceive(event_port, msg);
            if (kr != xnu::KERN_SUCCESS)
                break;
            dispatch(msg);
        }
    } catch (...) {
        // The app died mid-event (a crash): tear the bridge down so
        // the eventpump thread exits, then let the crash propagate —
        // eventpump and app share the process and die together.
        if (!socket_path.empty()) {
            pump.stop();
            pump.join();
        }
        libc_.machPortDestroy(event_port);
        throw;
    }

    if (!socket_path.empty())
        pump.join();
    libc_.machPortDestroy(event_port);
    return 0;
}

} // namespace cider::ios
