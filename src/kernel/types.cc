#include "kernel/types.h"

#include "base/logging.h"

namespace cider::kernel {

const char *
personaName(Persona p)
{
    switch (p) {
      case Persona::Android:
        return "android";
      case Persona::Ios:
        return "ios";
    }
    return "?";
}

const char *
trapClassName(TrapClass c)
{
    switch (c) {
      case TrapClass::LinuxSyscall:
        return "linux";
      case TrapClass::XnuBsd:
        return "xnu-bsd";
      case TrapClass::XnuMach:
        return "xnu-mach";
      case TrapClass::XnuMdep:
        return "xnu-mdep";
      case TrapClass::XnuDiag:
        return "xnu-diag";
    }
    return "?";
}

namespace {

template <typename T>
const T &
argAs(const SyscallArgs &args, std::size_t i)
{
    // Foreign user space controls the argument list, so a missing
    // or mistyped argument is a rejectable request, not an invariant
    // violation: throw for the trap dispatcher to turn into EINVAL.
    if (i >= args.size())
        throw BadSyscallArg("syscall argument " + std::to_string(i) +
                            " out of range");
    const T *v = std::get_if<T>(&args.args[i]);
    if (!v)
        throw BadSyscallArg("syscall argument " + std::to_string(i) +
                            " has wrong type");
    return *v;
}

} // namespace

std::uint64_t
SyscallArgs::u64(std::size_t i) const
{
    if (i < count) {
        if (const auto *v = std::get_if<std::uint64_t>(&args[i]))
            return *v;
        if (const auto *v = std::get_if<std::int64_t>(&args[i]))
            return static_cast<std::uint64_t>(*v);
    }
    return argAs<std::uint64_t>(*this, i);
}

std::int64_t
SyscallArgs::i64(std::size_t i) const
{
    if (i < count) {
        if (const auto *v = std::get_if<std::int64_t>(&args[i]))
            return *v;
        if (const auto *v = std::get_if<std::uint64_t>(&args[i]))
            return static_cast<std::int64_t>(*v);
    }
    return argAs<std::int64_t>(*this, i);
}

std::string_view
SyscallArgs::str(std::size_t i) const
{
    return argAs<std::string_view>(*this, i);
}

Bytes *
SyscallArgs::bytes(std::size_t i) const
{
    return argAs<Bytes *>(*this, i);
}

const Bytes *
SyscallArgs::cbytes(std::size_t i) const
{
    return argAs<const Bytes *>(*this, i);
}

void *
SyscallArgs::ptr(std::size_t i) const
{
    return argAs<void *>(*this, i);
}

} // namespace cider::kernel
