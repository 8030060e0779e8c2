#include "kernel/device.h"

#include <algorithm>

namespace cider::kernel {

void
Device::setProperty(const std::string &key, const std::string &value)
{
    props_[key] = value;
}

std::string
Device::property(const std::string &key) const
{
    auto it = props_.find(key);
    return it == props_.end() ? std::string() : it->second;
}

SyscallResult
Device::ioctl(Thread &, std::uint64_t, void *)
{
    return SyscallResult::failure(lnx::NOTTY);
}

SyscallResult
Device::read(Thread &, Bytes &, std::size_t)
{
    return SyscallResult::failure(lnx::INVAL);
}

SyscallResult
Device::write(Thread &, const Bytes &)
{
    return SyscallResult::failure(lnx::INVAL);
}

SyscallResult
ProcNode::read(Thread &, Bytes &out, std::size_t n)
{
    std::string text = render_();
    std::size_t take = std::min(n, text.size());
    out.assign(text.begin(),
               text.begin() + static_cast<std::ptrdiff_t>(take));
    return SyscallResult::success(static_cast<std::int64_t>(take));
}

SyscallResult
DeviceFile::read(Thread &t, Bytes &out, std::size_t n)
{
    return dev_.read(t, out, n);
}

SyscallResult
DeviceFile::write(Thread &t, const Bytes &data)
{
    return dev_.write(t, data);
}

SyscallResult
DeviceFile::ioctl(Thread &t, std::uint64_t req, void *arg)
{
    return dev_.ioctl(t, req, arg);
}

PollState
DeviceFile::poll() const
{
    PollState st;
    st.readable = true;
    st.writable = true;
    return st;
}

Device &
DeviceRegistry::add(std::unique_ptr<Device> dev)
{
    devices_.push_back(std::move(dev));
    Device &ref = *devices_.back();
    if (hook_)
        hook_(ref);
    return ref;
}

Device *
DeviceRegistry::find(const std::string &name) const
{
    for (const auto &d : devices_)
        if (d->name() == name)
            return d.get();
    return nullptr;
}

std::vector<Device *>
DeviceRegistry::all() const
{
    std::vector<Device *> out;
    out.reserve(devices_.size());
    for (const auto &d : devices_)
        out.push_back(d.get());
    return out;
}

void
DeviceRegistry::setAddHook(AddHook hook)
{
    hook_ = std::move(hook);
    if (hook_)
        for (const auto &d : devices_)
            hook_(*d);
}

} // namespace cider::kernel
