#include "iokit/io_service.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "base/logging.h"
#include "kernel/kernel.h"
#include "kernel/trap_context.h"

namespace cider::iokit {

IOService::IOService(ducttape::KernelCxxRuntime &rt, std::string name)
    : IORegistryEntry(rt, std::move(name))
{}

bool
IOService::probe(IORegistryEntry &)
{
    return true;
}

bool
IOService::start(IORegistryEntry &provider)
{
    provider_ = &provider;
    started_ = true;
    return true;
}

void
IOService::stop()
{
    started_ = false;
    provider_ = nullptr;
}

xnu::kern_return_t
IOService::externalMethod(std::uint32_t, const std::vector<std::int64_t> &,
                          std::vector<std::int64_t> &)
{
    return xnu::KERN_FAILURE;
}

IOCatalogue::IOCatalogue(IORegistry &registry) : registry_(registry)
{
    registry_.setPublishHook(
        [this](IORegistryEntry &entry) { matchEntry(entry); });
}

void
IOCatalogue::addPersonality(IOPersonality personality)
{
    personalities_.push_back(std::move(personality));
    // Late driver registration re-matches everything already
    // published (kernel modules can load after boot).
    for (IORegistryEntry *entry : registry_.matchAll(OSDictionary{}))
        if (entry != &registry_.root())
            matchEntry(*entry);
}

void
IOCatalogue::addDriver(const std::string &class_name, OSDictionary match,
                       Factory factory)
{
    addPersonality(
        {class_name, std::move(match), 0, "", std::move(factory)});
}

void
IOCatalogue::matchEntry(IORegistryEntry &entry)
{
    // Gather the matching personalities, then probe them in descending
    // score order (stable, so equal scores keep registration order).
    std::vector<IOPersonality *> candidates;
    for (IOPersonality &p : personalities_)
        if (osDictMatches(entry.properties(), p.match))
            candidates.push_back(&p);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const IOPersonality *a, const IOPersonality *b) {
                         return a->probeScore > b->probeScore;
                     });

    // Each match category admits one winner per provider. Categories
    // already occupied by a started service keep their incumbent.
    std::set<std::string> done;
    for (IORegistryEntry *child : entry.children())
        if (auto *svc = dynamic_cast<IOService *>(child);
            svc && svc->started())
            done.insert(svc->matchCategory());

    for (IOPersonality *p : candidates) {
        if (done.count(p->matchCategory))
            continue;
        // Don't double-attach the same driver class to one provider.
        bool already = false;
        for (IORegistryEntry *child : entry.children()) {
            if (child->entryName() == p->className) {
                already = true;
                break;
            }
        }
        if (already) {
            done.insert(p->matchCategory);
            continue;
        }

        ++p->probes;
        IOService *service = p->factory(registry_.runtime());
        if (!service)
            continue;
        service->setMatchMeta(p->probeScore, p->matchCategory);
        if (!service->probe(entry)) {
            // A failed probe falls through to the next-best candidate.
            service->release();
            ++p->probeFailures;
            continue;
        }
        registry_.attach(service, &entry);
        if (service->start(entry)) {
            services_.push_back(service);
            done.insert(p->matchCategory);
            ++p->wins;
        } else {
            registry_.detach(service);
            ++p->startFailures;
        }
    }
}

IOService *
IOCatalogue::findService(const std::string &class_name) const
{
    for (IOService *service : services_)
        if (service->entryName() == class_name && service->started())
            return service;
    return nullptr;
}

bool
IOCatalogue::terminate(IOService *service)
{
    auto it = std::find(services_.begin(), services_.end(), service);
    if (it == services_.end())
        return false;
    services_.erase(it);
    service->stop();
    registry_.detach(service);
    return true;
}

namespace {

IOCatalogue &
catalogueOf(void *user)
{
    return *static_cast<IOCatalogue *>(user);
}

} // namespace

void
registerIoKitTraps(kernel::SyscallTable &mach_table, IOCatalogue &catalogue)
{
    mach_table.set(
        iokitno::GET_MATCHING_SERVICE, "io_service_get_matching_service",
        [](kernel::TrapContext &c, void *u) {
            IOCatalogue &catalogue = catalogueOf(u);
            const std::string class_name(c.args.str(0));
            if (IOService *service = catalogue.findService(class_name))
                return kernel::SyscallResult::success(
                    static_cast<std::int64_t>(service->entryId()));
            if (IORegistryEntry *entry =
                    catalogue.registry().findByName(class_name))
                return kernel::SyscallResult::success(
                    static_cast<std::int64_t>(entry->entryId()));
            return kernel::SyscallResult::success(0);
        },
        &catalogue);

    mach_table.set(
        iokitno::GET_PROPERTY, "io_registry_entry_get_property",
        [](kernel::TrapContext &c, void *u) {
            IORegistryEntry *entry =
                catalogueOf(u).registry().findById(c.args.u64(0));
            auto *out = static_cast<std::string *>(c.args.ptr(2));
            if (!entry || !out)
                return kernel::SyscallResult::success(
                    xnu::KERN_INVALID_NAME);
            *out = osValueString(
                entry->property(std::string(c.args.str(1))));
            return kernel::SyscallResult::success(xnu::KERN_SUCCESS);
        },
        &catalogue);

    mach_table.set(
        iokitno::CONNECT_CALL_METHOD, "io_connect_call_method",
        [](kernel::TrapContext &c, void *u) {
            IORegistryEntry *entry =
                catalogueOf(u).registry().findById(c.args.u64(0));
            auto *io = static_cast<IoConnectArgs *>(c.args.ptr(2));
            auto *service = dynamic_cast<IOService *>(entry);
            if (!service || !io)
                return kernel::SyscallResult::success(
                    xnu::KERN_INVALID_NAME);
            xnu::kern_return_t kr = service->externalMethod(
                static_cast<std::uint32_t>(c.args.u64(1)), io->input,
                io->output);
            return kernel::SyscallResult::success(kr);
        },
        &catalogue);
}

namespace {

void
dumpEntry(const IORegistryEntry &entry, int depth, std::ostringstream &os)
{
    os << std::string(static_cast<std::size_t>(depth) * 2, ' ') << "+ "
       << entry.entryName() << " <" << entry.className() << "> id="
       << entry.entryId();
    if (const auto *svc = dynamic_cast<const IOService *>(&entry)) {
        os << " started=" << (svc->started() ? 1 : 0)
           << " score=" << svc->probeScore();
        if (!svc->matchCategory().empty())
            os << " category=" << svc->matchCategory();
    }
    os << "\n";
    for (const IORegistryEntry *child : entry.children())
        dumpEntry(*child, depth + 1, os);
}

} // namespace

std::string
dumpIoKit(const IORegistry &registry, const IOCatalogue &catalogue)
{
    std::ostringstream os;
    os << "iokit registry (" << registry.entryCount() << " entries)\n";
    dumpEntry(registry.root(), 0, os);
    os << "services " << catalogue.services().size() << "\n";
    for (const IOService *svc : catalogue.services())
        os << "  service " << svc->entryName() << " provider="
           << (svc->provider() ? svc->provider()->entryName() : "-")
           << " score=" << svc->probeScore() << "\n";
    os << "personalities " << catalogue.personalities().size() << "\n";
    for (const auto &p : catalogue.personalities())
        os << "  personality " << p.className << " score=" << p.probeScore
           << " probes=" << p.probes
           << " probe_failures=" << p.probeFailures
           << " start_failures=" << p.startFailures << " wins=" << p.wins
           << "\n";
    return os.str();
}

} // namespace cider::iokit
