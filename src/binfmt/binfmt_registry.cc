#include "binfmt/binfmt_registry.h"

#include "base/cost_clock.h"
#include "base/logging.h"
#include "kernel/fault_rail.h"

namespace cider::binfmt {

namespace {

/** Parse/validate work every loader does over the image bytes. */
void
chargeLoaderWork(kernel::Kernel &k, std::size_t blob_size)
{
    // Header walk plus segment setup: a few thousand cycles, scaling
    // mildly with image size.
    charge(k.profile().cyclesToNs(3000.0 +
                                  static_cast<double>(blob_size) / 8.0));
}

} // namespace

kernel::SyscallResult
ElfLoader::load(kernel::Kernel &k, kernel::Thread &t, const Bytes &blob,
                const std::string &path,
                const std::vector<std::string> &argv)
{
    // Fault site: image load failing mid-exec (bad media, truncated
    // read); exec reports ENOEXEC and the caller's process survives.
    if (CIDER_FAULT_POINT("binfmt.elf"))
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    std::optional<ElfImage> parsed = parseElf(blob);
    if (!parsed)
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    chargeLoaderWork(k, blob.size());

    const ProgramFn *fn = programs_.find(parsed->entrySymbol);
    if (!fn) {
        warn("elf loader: entry symbol '", parsed->entrySymbol,
             "' is not registered text");
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    }

    kernel::Process &proc = t.process();
    kernel::ProcessImage &image = proc.image();
    image.path = path;
    image.format = kernel::BinaryFormat::Elf;
    image.entrySymbol = parsed->entrySymbol;
    image.codegen = parsed->codegen;
    image.persona = kernel::Persona::Android;
    image.dylibDeps = parsed->needed;
    image.argv = argv;

    for (const auto &seg : parsed->segments)
        proc.mem().addMapping(k.vm().intern(path + ":" + seg.name),
                              seg.pages);

    t.setPersona(kernel::Persona::Android);

    ElfImage img = *parsed;
    ProgramFn body = *fn;
    ElfBootstrap bootstrap = bootstrap_;
    kernel::Kernel *kp = &k;
    image.entry = [kp, img, body, bootstrap,
                   argv](kernel::Thread &thread) -> int {
        UserEnv env{*kp, thread, argv};
        if (bootstrap)
            bootstrap(env, img);
        return body(env);
    };
    return kernel::SyscallResult::success();
}

kernel::SyscallResult
MachOLoader::load(kernel::Kernel &k, kernel::Thread &t, const Bytes &blob,
                  const std::string &path,
                  const std::vector<std::string> &argv)
{
    // Fault site: see the ELF loader above.
    if (CIDER_FAULT_POINT("binfmt.macho"))
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    std::optional<MachOImage> parsed = parseMachO(blob);
    if (!parsed)
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    if (parsed->fileType != MachOFileType::Execute)
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    chargeLoaderWork(k, blob.size());

    const ProgramFn *fn = programs_.find(parsed->entrySymbol);
    if (!fn) {
        warn("macho loader: entry symbol '", parsed->entrySymbol,
             "' is not registered text");
        return kernel::SyscallResult::failure(kernel::lnx::NOEXEC);
    }

    kernel::Process &proc = t.process();
    kernel::ProcessImage &image = proc.image();
    image.path = path;
    image.format = kernel::BinaryFormat::MachO;
    image.entrySymbol = parsed->entrySymbol;
    image.codegen = parsed->codegen;
    image.persona = kernel::Persona::Ios;
    image.dylibDeps = parsed->dylibs;
    image.argv = argv;

    for (const auto &seg : parsed->segments)
        proc.mem().addMapping(k.vm().intern(path + ":" + seg.name),
                              seg.pages);

    // The key step: loading a Mach-O binary tags the thread with the
    // iOS persona, used in all subsequent kernel interactions.
    t.setPersona(kernel::Persona::Ios);

    MachOImage img = *parsed;
    ProgramFn body = *fn;
    MachOBootstrap bootstrap = bootstrap_;
    kernel::Kernel *kp = &k;
    image.entry = [kp, img, body, bootstrap,
                   argv](kernel::Thread &thread) -> int {
        UserEnv env{*kp, thread, argv};
        if (bootstrap)
            bootstrap(env, img);
        return body(env);
    };
    return kernel::SyscallResult::success();
}

} // namespace cider::binfmt
