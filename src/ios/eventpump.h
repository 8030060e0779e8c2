/**
 * @file
 * The eventpump: Cider's input bridge thread inside each iOS app.
 *
 * "Cider creates a new thread in each iOS app to act as a bridge
 * between the Android input system and the Mach IPC port expecting
 * input events. This thread, the eventpump, listens for events from
 * the Android CiderPress app on a BSD socket. It then pumps those
 * events into the iOS app via Mach IPC" (paper section 5.2).
 */

#ifndef CIDER_IOS_EVENTPUMP_H
#define CIDER_IOS_EVENTPUMP_H

#include <memory>
#include <thread>

#include "android/input.h"
#include "binfmt/program.h"
#include "kernel/file.h"
#include "xnu/mach_ipc.h"

namespace cider::ios {

/** Mach message ids delivered to the app's event port. */
namespace hidmsg {

inline constexpr std::int32_t HidEvent = 600;  ///< body: MotionEvent
inline constexpr std::int32_t Lifecycle = 601; ///< body: u8 (1=pause,2=resume)
inline constexpr std::int32_t Quit = 602;
/** Gesture/event kinds encoded in lifecycle payloads. */
inline constexpr std::uint8_t PauseCode = 1;
inline constexpr std::uint8_t ResumeCode = 2;

} // namespace hidmsg

class EventPump
{
  public:
    /**
     * Start the bridge thread in @p app_env's process: connect to
     * CiderPress at @p socket_path, read framed control messages, and
     * pump them to @p event_port (a receive right in the app's
     * space). Blocks until the connection attempt resolves.
     */
    bool start(binfmt::UserEnv &app_env, const std::string &socket_path,
               xnu::mach_port_name_t event_port);

    /** Join the bridge thread (socket EOF/stop must arrive first). */
    void join();

    /**
     * Force the bridge socket shut so a blocked read returns EOF —
     * used when the app dies while the pump is still parked.
     */
    void stop();

  private:
    std::thread thread_;
    std::shared_ptr<kernel::OpenFile> socket_;
};

} // namespace cider::ios

#endif // CIDER_IOS_EVENTPUMP_H
