/**
 * @file
 * IOService, the driver catalogue, and the Mach traps that expose
 * I/O Kit to iOS user space.
 *
 * The flow mirrors section 5.1 of the paper: Linux devices become
 * *device class instances* in the registry; driver classes register
 * with the catalogue; the duct-taped matching code pairs driver and
 * device, instantiates the driver, and starts it; iOS user space then
 * locates and drives the service through Mach calls.
 */

#ifndef CIDER_IOKIT_IO_SERVICE_H
#define CIDER_IOKIT_IO_SERVICE_H

#include <functional>
#include <memory>
#include <vector>

#include "iokit/io_registry.h"
#include "kernel/device.h"
#include "xnu/kern_return.h"

namespace cider::kernel {
class SyscallTable;
} // namespace cider::kernel

namespace cider::iokit {

class IOService : public IORegistryEntry
{
  public:
    IOService(ducttape::KernelCxxRuntime &rt, std::string name);

    const char *className() const override { return "IOService"; }

    /** Probe whether this driver can handle @p provider. */
    virtual bool probe(IORegistryEntry &provider);

    /** Begin driving @p provider. */
    virtual bool start(IORegistryEntry &provider);
    virtual void stop();
    bool started() const { return started_; }
    IORegistryEntry *provider() const { return provider_; }

    /** Matching metadata stamped by the catalogue at instantiation. */
    std::int32_t probeScore() const { return probeScore_; }
    const std::string &matchCategory() const { return category_; }
    void setMatchMeta(std::int32_t score, std::string category)
    {
        probeScore_ = score;
        category_ = std::move(category);
    }

    /**
     * The user-client entry point: iOS libraries call selectors with
     * scalar arguments, exactly the shape of IOConnectCallMethod.
     */
    virtual xnu::kern_return_t
    externalMethod(std::uint32_t selector,
                   const std::vector<std::int64_t> &input,
                   std::vector<std::int64_t> &output);

  private:
    bool started_ = false;
    IORegistryEntry *provider_ = nullptr;
    std::int32_t probeScore_ = 0;
    std::string category_;
};

/**
 * The driver catalogue: registered driver classes plus the matching
 * logic run at device publication.
 */
class IOCatalogue
{
  public:
    using Factory =
        std::function<IOService *(ducttape::KernelCxxRuntime &)>;

    /**
     * One driver personality, the unit of matching: a property
     * dictionary plus a probe score. When several personalities of
     * the same match category match one provider, candidates probe
     * in descending score order and the first successful
     * probe+start wins the category; a failed probe or start falls
     * through to the next candidate. Personalities with different
     * categories attach independently (e.g. a storage driver and a
     * diagnostics driver on the same device).
     */
    struct IOPersonality
    {
        std::string className;
        OSDictionary match;
        std::int32_t probeScore = 0;
        std::string matchCategory; // "" = the default category
        Factory factory;
        // Matching statistics (for /proc/cider/iokit and tests).
        std::uint64_t probes = 0;
        std::uint64_t probeFailures = 0;
        std::uint64_t startFailures = 0;
        std::uint64_t wins = 0;
    };

    explicit IOCatalogue(IORegistry &registry);

    /**
     * Register a personality: instances are created for published
     * registry entries whose properties match. Already-published
     * entries are re-matched immediately (kernel modules can load
     * after boot).
     */
    void addPersonality(IOPersonality personality);

    /** Back-compat shorthand: score 0, default match category. */
    void addDriver(const std::string &class_name, OSDictionary match,
                   Factory factory);

    /** Find a started service by driver class name. */
    IOService *findService(const std::string &class_name) const;

    /**
     * Stop a started service and unwind its registry attachment
     * (subtree detach + release). Returns false when the service is
     * not one of ours. The provider is NOT re-matched; call
     * rematch() to let the next-best personality take over.
     */
    bool terminate(IOService *service);

    /** Re-run matching for one published provider entry. */
    void rematch(IORegistryEntry &entry) { matchEntry(entry); }

    /** The registry the catalogue matches against. */
    IORegistry &registry() const { return registry_; }

    const std::vector<IOService *> &services() const
    {
        return services_;
    }
    const std::vector<IOPersonality> &personalities() const
    {
        return personalities_;
    }

  private:
    void matchEntry(IORegistryEntry &entry);

    IORegistry &registry_;
    std::vector<IOPersonality> personalities_;
    std::vector<IOService *> services_; ///< borrowed from registry
};

/** IOKit Mach trap numbers (Cider extension range). */
namespace iokitno {

inline constexpr int GET_MATCHING_SERVICE = -60;
inline constexpr int GET_PROPERTY = -61;
inline constexpr int CONNECT_CALL_METHOD = -62;

} // namespace iokitno

/** Argument block for CONNECT_CALL_METHOD. */
struct IoConnectArgs
{
    std::vector<std::int64_t> input;
    std::vector<std::int64_t> output;
};

/** Expose @p catalogue and its registry through Mach traps. */
void registerIoKitTraps(kernel::SyscallTable &mach_table,
                        IOCatalogue &catalogue);

/** Text of /proc/cider/iokit: registry tree, services, personality
 *  stats. */
std::string dumpIoKit(const IORegistry &registry,
                      const IOCatalogue &catalogue);

} // namespace cider::iokit

#endif // CIDER_IOKIT_IO_SERVICE_H
