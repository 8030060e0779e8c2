#include "android/location.h"

#include "android/bionic.h"
#include "base/cost_clock.h"

namespace cider::android {

GpsDevice::GpsDevice(double latitude, double longitude)
    : Device("gps0", "gps"),
      latE6_(static_cast<std::int32_t>(latitude * 1e6)),
      lonE6_(static_cast<std::int32_t>(longitude * 1e6))
{
    setProperty("vendor", "ublox-m8");
    setProperty("latE6", std::to_string(latE6_));
    setProperty("lonE6", std::to_string(lonE6_));
}

kernel::SyscallResult
GpsDevice::ioctl(kernel::Thread &, std::uint64_t req, void *arg)
{
    if (req != kIoctlGetFix)
        return kernel::SyscallResult::failure(kernel::lnx::INVAL);
    auto *fix = static_cast<GpsFix *>(arg);
    if (!fix)
        return kernel::SyscallResult::failure(kernel::lnx::FAULT);
    charge(40000); // receiver query latency
    fix->latE6 = latE6_;
    fix->lonE6 = lonE6_;
    fix->valid = true;
    ++fixes_;
    return kernel::SyscallResult::success();
}

binfmt::LibraryImage
makeLocationLibrary()
{
    binfmt::LibraryImage lib;
    lib.name = "liblocation.so";
    lib.format = kernel::BinaryFormat::Elf;
    lib.pages = 24;

    lib.exports.add(
        kLocationGetFix,
        [](binfmt::UserEnv &env, std::vector<binfmt::Value> &) {
            Bionic libc(env);
            int fd = libc.open("/dev/gps0", kernel::oflag::RDONLY);
            if (fd < 0)
                return binfmt::Value{std::int64_t{0}};
            GpsFix fix;
            int rc = libc.ioctl(fd, GpsDevice::kIoctlGetFix, &fix);
            libc.close(fd);
            if (rc != 0 || !fix.valid)
                return binfmt::Value{std::int64_t{0}};
            std::int64_t packed =
                (static_cast<std::int64_t>(fix.latE6) << 32) |
                (static_cast<std::uint32_t>(fix.lonE6));
            return binfmt::Value{packed};
        });
    return lib;
}

GpsFix
unpackFix(std::int64_t packed)
{
    GpsFix fix;
    if (packed == 0)
        return fix;
    fix.latE6 = static_cast<std::int32_t>(packed >> 32);
    fix.lonE6 = static_cast<std::int32_t>(packed & 0xffffffff);
    fix.valid = true;
    return fix;
}

} // namespace cider::android
