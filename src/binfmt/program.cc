#include "binfmt/program.h"

#include "base/logging.h"

namespace cider::binfmt {

std::int64_t
valueI64(const Value &v)
{
    if (const auto *p = std::get_if<std::int64_t>(&v))
        return *p;
    if (const auto *p = std::get_if<double>(&v))
        return static_cast<std::int64_t>(*p);
    return 0;
}

double
valueF64(const Value &v)
{
    if (const auto *p = std::get_if<double>(&v))
        return *p;
    if (const auto *p = std::get_if<std::int64_t>(&v))
        return static_cast<double>(*p);
    return 0.0;
}

std::string
valueStr(const Value &v)
{
    if (const auto *p = std::get_if<std::string>(&v))
        return *p;
    return {};
}

void *
valuePtr(const Value &v)
{
    if (const auto *p = std::get_if<void *>(&v))
        return *p;
    return nullptr;
}

void
SymbolTable::add(const std::string &name, NativeFn fn)
{
    syms_[name] = Symbol{name, std::move(fn)};
}

const Symbol *
SymbolTable::find(const std::string &name) const
{
    auto it = syms_.find(name);
    return it == syms_.end() ? nullptr : &it->second;
}

std::vector<std::string>
SymbolTable::names() const
{
    std::vector<std::string> out;
    out.reserve(syms_.size());
    for (const auto &[name, sym] : syms_)
        out.push_back(name);
    return out;
}

LibraryImage &
LibraryRegistry::add(LibraryImage image)
{
    auto ptr = std::make_unique<LibraryImage>(std::move(image));
    LibraryImage &ref = *ptr;
    std::unique_ptr<LibraryImage> &slot = images_[ref.name];
    ref.index = slot ? slot->index
                     : static_cast<std::uint32_t>(images_.size() - 1);
    if (slot)
        retired_.push_back(std::move(slot));
    slot = std::move(ptr);
    ++generation_;
    return ref;
}

LibraryImage *
LibraryRegistry::find(const std::string &name)
{
    auto it = images_.find(name);
    return it == images_.end() ? nullptr : it->second.get();
}

const LibraryImage *
LibraryRegistry::find(const std::string &name) const
{
    auto it = images_.find(name);
    return it == images_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
LibraryRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(images_.size());
    for (const auto &[name, img] : images_)
        out.push_back(name);
    return out;
}

std::uint64_t
LibraryRegistry::totalPages() const
{
    std::uint64_t pages = 0;
    for (const auto &[name, img] : images_)
        pages += img->pages;
    return pages;
}

void
ProgramRegistry::add(const std::string &name, ProgramFn fn)
{
    programs_[name] = std::move(fn);
}

const ProgramFn *
ProgramRegistry::find(const std::string &name) const
{
    auto it = programs_.find(name);
    return it == programs_.end() ? nullptr : &it->second;
}

} // namespace cider::binfmt
