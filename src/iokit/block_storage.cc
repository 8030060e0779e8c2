#include "iokit/block_storage.h"

#include "base/cost_clock.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"

namespace cider::iokit {

namespace {

/** Simulated sector size: what one queued request moves. */
constexpr std::uint64_t kBlockBytes = 512;

} // namespace

IOBlockStorageDriver::IOBlockStorageDriver(
    ducttape::KernelCxxRuntime &rt, const hw::DeviceProfile &profile)
    : IOService(rt, "IOBlockStorageDriver"), profile_(profile)
{}

bool
IOBlockStorageDriver::probe(IORegistryEntry &provider)
{
    return osValueString(provider.property(kLinuxClassKey)) == "block" &&
           linuxDeviceOf(provider) != nullptr;
}

bool
IOBlockStorageDriver::start(IORegistryEntry &provider)
{
    kernel::Device *dev = linuxDeviceOf(provider);
    if (!dev)
        return false;
    if (const std::string depth = dev->property("queue-depth");
        !depth.empty())
        depth_ = std::stoul(depth);
    setProperty("IOClass", std::string("IOBlockStorageDriver"));
    setProperty("QueueDepth", static_cast<std::int64_t>(depth_));
    return IOService::start(provider);
}

std::size_t
IOBlockStorageDriver::drainLocked()
{
    std::size_t drained = 0;
    while (!queue_.empty()) {
        Request req = queue_.front();
        queue_.pop_front();
        charge(profile_.storageOpenNs +
               kBlockBytes * (req.write ? profile_.storageWriteBytePs
                                        : profile_.storageReadBytePs) /
                   1000);
        if (CIDER_FAULT_POINT("blk.io")) {
            ++ioErrors_;
            continue;
        }
        if (req.write)
            store_[req.lba] = req.value;
        ++completed_;
        ++drained;
    }
    return drained;
}

xnu::kern_return_t
IOBlockStorageDriver::externalMethod(
    std::uint32_t selector, const std::vector<std::int64_t> &input,
    std::vector<std::int64_t> &output)
{
    std::lock_guard<std::mutex> lk(mu_);
    switch (selector) {
      case blksel::Read: {
          if (input.empty())
              return xnu::KERN_INVALID_ARGUMENT;
          // Reads see every prior write: drain the queue first.
          drainLocked();
          charge(profile_.storageOpenNs +
                 kBlockBytes * profile_.storageReadBytePs / 1000);
          auto it = store_.find(input[0]);
          output.push_back(it == store_.end() ? 0 : it->second);
          return xnu::KERN_SUCCESS;
      }
      case blksel::Write:
        if (input.size() < 2)
            return xnu::KERN_INVALID_ARGUMENT;
        queue_.push_back({true, input[0], input[1]});
        // The queue auto-drains when it reaches the device depth.
        if (queue_.size() >= depth_)
            drainLocked();
        return xnu::KERN_SUCCESS;
      case blksel::Flush:
        output.push_back(
            static_cast<std::int64_t>(drainLocked()));
        return xnu::KERN_SUCCESS;
      case blksel::GetStats:
        output.push_back(static_cast<std::int64_t>(queue_.size()));
        output.push_back(static_cast<std::int64_t>(completed_));
        output.push_back(static_cast<std::int64_t>(ioErrors_));
        output.push_back(static_cast<std::int64_t>(depth_));
        return xnu::KERN_SUCCESS;
      default:
        return xnu::KERN_FAILURE;
    }
}

std::size_t
IOBlockStorageDriver::pending() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

std::uint64_t
IOBlockStorageDriver::completed() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return completed_;
}

std::uint64_t
IOBlockStorageDriver::ioErrors() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return ioErrors_;
}

void
IOBlockStorageDriver::registerDriver(ducttape::KernelCxxRuntime &rt,
                                     IOCatalogue &catalogue,
                                     const hw::DeviceProfile &profile)
{
    rt.addStaticConstructor(
        "IOBlockStorageDriver", [&rt, &catalogue, &profile] {
            OSDictionary match;
            match[kLinuxClassKey] = std::string("block");
            IOCatalogue::IOPersonality personality;
            personality.className = "IOBlockStorageDriver";
            personality.match = std::move(match);
            personality.probeScore = 900;
            personality.matchCategory = "storage";
            personality.factory =
                [&profile](ducttape::KernelCxxRuntime &runtime)
                -> IOService * {
                return new IOBlockStorageDriver(runtime, profile);
            };
            catalogue.addPersonality(std::move(personality));
        });
}

} // namespace cider::iokit
