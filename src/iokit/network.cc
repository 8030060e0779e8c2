#include "iokit/network.h"

#include <sstream>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"

namespace cider::iokit {

// ---------------------------------------------------------------- fabric

void
NetFabric::link(IONetworkController *controller)
{
    std::lock_guard<std::mutex> lk(mu_);
    controllers_.push_back(controller);
}

void
NetFabric::unlink(IONetworkController *controller)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = controllers_.begin(); it != controllers_.end(); ++it) {
        if (*it == controller) {
            controllers_.erase(it);
            return;
        }
    }
}

bool
NetFabric::carry(const kernel::NetFrame &frame)
{
    IONetworkController *target = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (IONetworkController *c : controllers_) {
            if (c->address() == frame.dstAddr) {
                target = c;
                break;
            }
        }
    }
    if (!target)
        return false;
    // Lock released: delivery may transmit replies that re-enter us.
    target->deliver(frame);
    return true;
}

std::size_t
NetFabric::linkCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return controllers_.size();
}

// ------------------------------------------------------------ controller

IONetworkController::IONetworkController(ducttape::KernelCxxRuntime &rt,
                                         IORegistry &registry,
                                         kernel::NetStack &stack,
                                         NetFabric &fabric)
    : IOService(rt, "IONetworkController"), registry_(registry),
      stack_(stack), fabric_(fabric)
{}

bool
IONetworkController::probe(IORegistryEntry &provider)
{
    if (osValueString(provider.property(kLinuxClassKey)) != "network")
        return false;
    kernel::Device *dev = linuxDeviceOf(provider);
    // A NIC without an address cannot join the fabric: fail the probe
    // so a lower-scored personality can take the provider instead.
    return dev && !dev->property("address").empty();
}

bool
IONetworkController::start(IORegistryEntry &provider)
{
    linuxDev_ = linuxDeviceOf(provider);
    if (!linuxDev_)
        return false;
    linuxName_ = linuxDev_->name();
    addr_ = static_cast<kernel::NetAddr>(
        std::stoul(linuxDev_->property("address")));
    if (const std::string depth = linuxDev_->property("tx-depth");
        !depth.empty())
        txDepth_ = std::stoul(depth);

    iface_ = new IONetworkInterface(registry_.runtime(), *this,
                                    linuxName_);
    registry_.attach(iface_, this);

    setProperty("IOClass", std::string("IONetworkController"));
    setProperty("IOProviderClass", std::string("IOLinuxDeviceNode"));
    setProperty("IONetworkAddress",
                static_cast<std::int64_t>(addr_));

    fabric_.link(this);
    stack_.attach(iface_);
    return IOService::start(provider);
}

void
IONetworkController::stop()
{
    if (iface_) {
        stack_.detach(iface_);
        iface_ = nullptr; // released with the registry subtree
    }
    fabric_.unlink(this);
    IOService::stop();
}

bool
IONetworkController::enqueueTx(const kernel::NetFrame &frame)
{
    // Decide under the lock, carry outside it: a carried frame's
    // receiver may transmit replies that re-enter enqueueTx.
    std::vector<kernel::NetFrame> carry;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!linkUp_) {
            // Ring-buffer while the link is down; overflow drops.
            if (txRing_.size() >= txDepth_) {
                ++stats_.ringDrops;
                return false;
            }
            txRing_.push_back(frame);
            return true;
        }

        ++stats_.txFrames;
        stats_.txBytes += frame.payload.size();

        if (CIDER_FAULT_POINT("nic.drop")) {
            ++stats_.faultDrops;
            return true; // the wire ate it; the sender cannot tell
        }
        if (CIDER_FAULT_POINT("nic.reorder") && !held_) {
            // Hold this frame; it rides out after the next one (an
            // adjacent swap). A retransmit pump always pushes a later
            // frame through, so a held frame cannot be stranded.
            held_ = frame;
            ++stats_.heldFrames;
            return true;
        }
        carry.push_back(frame);
        if (CIDER_FAULT_POINT("nic.dup")) {
            ++stats_.dupFrames;
            carry.push_back(frame);
        }
        if (held_) {
            carry.push_back(*held_);
            held_.reset();
        }
    }
    for (const kernel::NetFrame &f : carry)
        carryCharged(f);
    return true;
}

void
IONetworkController::carryCharged(const kernel::NetFrame &frame)
{
    const hw::DeviceProfile &profile = stack_.profile();
    charge(profile.nicLinkLatencyNs +
           frame.payload.size() * profile.nicPerBytePs / 1000);
    fabric_.carry(frame);
}

void
IONetworkController::deliver(const kernel::NetFrame &frame)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.rxFrames;
        stats_.rxBytes += frame.payload.size();
    }
    stack_.input(frame);
}

void
IONetworkController::setLink(bool up)
{
    std::deque<kernel::NetFrame> flush;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (linkUp_ == up)
            return;
        linkUp_ = up;
        if (up)
            flush.swap(txRing_);
    }
    // Frames buffered while down leave through the normal TX path
    // (fault sites and cost charging included).
    for (const kernel::NetFrame &f : flush)
        enqueueTx(f);
}

NicStats
IONetworkController::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::string
IONetworkController::statsLine() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    os << linuxName_ << " addr=" << addr_
       << " link=" << (linkUp_ ? "up" : "down")
       << " tx=" << stats_.txFrames << "/" << stats_.txBytes << "B"
       << " rx=" << stats_.rxFrames << "/" << stats_.rxBytes << "B"
       << " drops=" << stats_.faultDrops << " dup=" << stats_.dupFrames
       << " held=" << stats_.heldFrames
       << " ring_drops=" << stats_.ringDrops
       << " ring=" << txRing_.size() << "/" << txDepth_;
    return os.str();
}

xnu::kern_return_t
IONetworkController::externalMethod(std::uint32_t selector,
                                    const std::vector<std::int64_t> &input,
                                    std::vector<std::int64_t> &output)
{
    switch (selector) {
      case nicsel::GetStats: {
          NicStats s = stats();
          output.push_back(static_cast<std::int64_t>(s.txFrames));
          output.push_back(static_cast<std::int64_t>(s.rxFrames));
          output.push_back(static_cast<std::int64_t>(s.faultDrops +
                                                     s.ringDrops));
          return xnu::KERN_SUCCESS;
      }
      case nicsel::SetLink:
        if (input.empty())
            return xnu::KERN_INVALID_ARGUMENT;
        setLink(input[0] != 0);
        return xnu::KERN_SUCCESS;
      case nicsel::GetAddress:
        output.push_back(static_cast<std::int64_t>(addr_));
        return xnu::KERN_SUCCESS;
      default:
        return xnu::KERN_FAILURE;
    }
}

void
IONetworkController::registerDriver(ducttape::KernelCxxRuntime &rt,
                                    IOCatalogue &catalogue,
                                    IORegistry &registry,
                                    kernel::NetStack &stack,
                                    NetFabric &fabric)
{
    rt.addStaticConstructor(
        "IONetworkController", [&rt, &catalogue, &registry, &stack,
                                &fabric] {
            OSDictionary match;
            match[kLinuxClassKey] = std::string("network");
            IOCatalogue::IOPersonality personality;
            personality.className = "IONetworkController";
            personality.match = std::move(match);
            personality.probeScore = 1000;
            personality.matchCategory = "net";
            personality.factory =
                [&registry, &stack,
                 &fabric](ducttape::KernelCxxRuntime &runtime)
                -> IOService * {
                return new IONetworkController(runtime, registry,
                                               stack, fabric);
            };
            catalogue.addPersonality(std::move(personality));
        });
}

// ------------------------------------------------------------- interface

IONetworkInterface::IONetworkInterface(ducttape::KernelCxxRuntime &rt,
                                       IONetworkController &controller,
                                       std::string if_name)
    : IOService(rt, "IONetworkInterface"), controller_(controller),
      ifName_(std::move(if_name))
{
    setProperty("IOClass", std::string("IONetworkInterface"));
    setProperty("BSD Name", ifName_);
}

} // namespace cider::iokit
