/**
 * @file
 * Device driver framework of the simulated domestic kernel.
 *
 * Cider hooks the Linux device_add path so every registered Linux
 * device also appears as an I/O Kit registry entry (paper section
 * 5.1). DeviceRegistry::setAddHook is that hook point; the iokit
 * module installs the bridge there.
 */

#ifndef CIDER_KERNEL_DEVICE_H
#define CIDER_KERNEL_DEVICE_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/file.h"
#include "kernel/types.h"

namespace cider::kernel {

/**
 * A Linux-side device driver instance. Property strings feed I/O Kit
 * matching when the device is bridged into the registry.
 */
class Device
{
  public:
    Device(std::string name, std::string dev_class)
        : name_(std::move(name)), class_(std::move(dev_class))
    {}
    virtual ~Device() = default;

    const std::string &name() const { return name_; }
    const std::string &deviceClass() const { return class_; }

    void setProperty(const std::string &key, const std::string &value);
    std::string property(const std::string &key) const;
    const std::map<std::string, std::string> &properties() const
    {
        return props_;
    }

    /** Driver entry points; defaults reject like an empty fops. */
    virtual SyscallResult ioctl(Thread &t, std::uint64_t req, void *arg);
    virtual SyscallResult read(Thread &t, Bytes &out, std::size_t n);
    virtual SyscallResult write(Thread &t, const Bytes &data);

  private:
    std::string name_;
    std::string class_;
    std::map<std::string, std::string> props_;
};

/**
 * A /proc text node (class "proc"), such as /proc/cider/trapstats.
 * Every read() renders a fresh text and returns up to @p n bytes of
 * it: procfs-style generated content, single-shot, so a short read
 * sees the text's first @p n bytes.
 */
class ProcNode : public Device
{
  public:
    using Render = std::function<std::string()>;

    ProcNode(std::string name, Render render)
        : Device(std::move(name), "proc"), render_(std::move(render))
    {}

    SyscallResult read(Thread &t, Bytes &out, std::size_t n) override;

    const Render &render() const { return render_; }

  private:
    Render render_;
};

/** Open-file wrapper exposing a device through a descriptor. */
class DeviceFile : public OpenFile
{
  public:
    explicit DeviceFile(Device &dev) : dev_(dev) {}

    std::string kind() const override { return "dev:" + dev_.name(); }
    SyscallResult read(Thread &t, Bytes &out, std::size_t n) override;
    SyscallResult write(Thread &t, const Bytes &data) override;
    SyscallResult ioctl(Thread &t, std::uint64_t req, void *arg) override;
    PollState poll() const override;

    Device &device() { return dev_; }

  private:
    Device &dev_;
};

/** All registered devices, with the device_add hook. */
class DeviceRegistry
{
  public:
    using AddHook = std::function<void(Device &)>;

    /** Register a device; fires the add hook (Cider's I/O Kit bridge). */
    Device &add(std::unique_ptr<Device> dev);

    Device *find(const std::string &name) const;
    std::vector<Device *> all() const;

    /** Install the hook called for every device registration. The hook
     *  also runs for devices that were added before installation, so
     *  bridge installation order does not matter. */
    void setAddHook(AddHook hook);

  private:
    std::vector<std::unique_ptr<Device>> devices_;
    AddHook hook_;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_DEVICE_H
