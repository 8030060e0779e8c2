/**
 * @file
 * GPS device and the domestic location library.
 *
 * The paper's device-support recipe (section 6.4): "Devices with a
 * simple interface, such as GPS, can be supported with I/O Kit
 * drivers ... and diplomatic functions." This module provides the
 * Android half: a Linux GPS driver node (automatically bridged into
 * the I/O Kit registry) and liblocation.so, the domestic library the
 * diplomatic CoreLocation entry points call into.
 */

#ifndef CIDER_ANDROID_LOCATION_H
#define CIDER_ANDROID_LOCATION_H

#include "binfmt/program.h"
#include "kernel/device.h"

namespace cider::android {

/** Fix block returned by the GPS driver ioctl. */
struct GpsFix
{
    std::int32_t latE6 = 0; ///< latitude  * 1e6
    std::int32_t lonE6 = 0; ///< longitude * 1e6
    bool valid = false;
};

/** The Linux GPS driver (/dev/gps0). */
class GpsDevice : public kernel::Device
{
  public:
    static constexpr std::uint64_t kIoctlGetFix = 0x67505301;

    GpsDevice(double latitude, double longitude);

    kernel::SyscallResult ioctl(kernel::Thread &t, std::uint64_t req,
                                void *arg) override;

    std::uint64_t fixCount() const { return fixes_; }

  private:
    std::int32_t latE6_;
    std::int32_t lonE6_;
    std::uint64_t fixes_ = 0;
};

/** liblocation.so exported symbol. */
inline constexpr const char *kLocationGetFix = "Location_getFix";

/**
 * Build liblocation.so. Location_getFix() returns the fix packed as
 * (latE6 << 32) | (lonE6 & 0xffffffff), or 0 with errno ENODEV when
 * no GPS hardware is present.
 */
binfmt::LibraryImage makeLocationLibrary();

/** Unpack a Location_getFix result. */
GpsFix unpackFix(std::int64_t packed);

} // namespace cider::android

#endif // CIDER_ANDROID_LOCATION_H
