#include "ios/eventpump.h"

#include "base/logging.h"
#include "android/ciderpress.h"
#include "ios/libsystem.h"
#include "kernel/kernel.h"

namespace cider::ios {

bool
EventPump::start(binfmt::UserEnv &app_env, const std::string &socket_path,
                 xnu::mach_port_name_t event_port)
{
    // Connect on the app's main thread so the descriptor lands in the
    // app's table; the pump thread then owns the read side.
    LibSystem libc(app_env);
    int fd = libc.socket();
    if (fd < 0 || libc.connect(fd, socket_path) < 0) {
        warn("eventpump: cannot connect to ", socket_path);
        return false;
    }
    if (auto desc = app_env.process().fds().get(fd))
        socket_ = desc->file;

    kernel::Process &proc = app_env.process();
    kernel::Kernel *k = &app_env.kernel;
    thread_ = k->startThread(
        proc, kernel::Persona::Ios,
        [this, k, fd, event_port](kernel::Thread &t) {
            binfmt::UserEnv env{*k, t, {"eventpump"}};
            LibSystem libc(env);

            auto pump = [&](std::int32_t msg_id, Bytes body) {
                xnu::MachMessage msg;
                msg.header.remotePort = event_port;
                msg.header.remoteDisposition =
                    xnu::MsgDisposition::MakeSend;
                msg.header.msgId = msg_id;
                msg.body = std::move(body);
                libc.machMsgSend(msg);
            };

            Bytes buffer;
            bool running = true;
            while (running) {
                // Ensure a full frame header, then a full payload.
                while (buffer.size() < 5) {
                    Bytes chunk;
                    if (libc.read(fd, chunk, 4096) <= 0) {
                        pump(hidmsg::Quit, {});
                        libc.close(fd);
                        return;
                    }
                    buffer.insert(buffer.end(), chunk.begin(),
                                  chunk.end());
                }
                ByteReader header(buffer);
                std::uint8_t kind = header.u8();
                std::uint32_t len = header.u32();
                while (buffer.size() < 5 + len) {
                    Bytes chunk;
                    if (libc.read(fd, chunk, 4096) <= 0) {
                        pump(hidmsg::Quit, {});
                        libc.close(fd);
                        return;
                    }
                    buffer.insert(buffer.end(), chunk.begin(),
                                  chunk.end());
                }
                Bytes payload(buffer.begin() + 5,
                              buffer.begin() + 5 +
                                  static_cast<std::ptrdiff_t>(len));
                buffer.erase(buffer.begin(),
                             buffer.begin() + 5 +
                                 static_cast<std::ptrdiff_t>(len));

                switch (kind) {
                  case android::cpmsg::Motion:
                    pump(hidmsg::HidEvent, std::move(payload));
                    break;
                  case android::cpmsg::Pause:
                    pump(hidmsg::Lifecycle,
                         Bytes{hidmsg::PauseCode});
                    break;
                  case android::cpmsg::Resume:
                    pump(hidmsg::Lifecycle,
                         Bytes{hidmsg::ResumeCode});
                    break;
                  case android::cpmsg::Stop:
                    pump(hidmsg::Quit, {});
                    running = false;
                    break;
                  default:
                    warn("eventpump: unknown bridge message kind ",
                         static_cast<int>(kind));
                    break;
                }
            }
            libc.close(fd);
        });
    return true;
}

void
EventPump::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
EventPump::stop()
{
    if (socket_)
        socket_->closed(); // shut both stream directions: EOF
}

} // namespace cider::ios
