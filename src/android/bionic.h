/**
 * @file
 * bionic: the domestic libc wrapper layer.
 *
 * Android (Linux) binaries reach the kernel through these wrappers:
 * persona::Libc built for the Android ABI, which traps with Linux
 * syscall numbers, folds a negative errno into -1 + errno in the
 * bionic TLS area, and keeps the process's atexit/atfork registries
 * under "bionic.state".
 */

#ifndef CIDER_ANDROID_BIONIC_H
#define CIDER_ANDROID_BIONIC_H

#include "persona/libc.h"

namespace cider::android {

class Bionic : public persona::Libc
{
  public:
    explicit Bionic(binfmt::UserEnv &env)
        : Libc(env, persona::libcAbi(kernel::Persona::Android))
    {}
};

} // namespace cider::android

#endif // CIDER_ANDROID_BIONIC_H
