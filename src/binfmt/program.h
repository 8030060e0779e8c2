/**
 * @file
 * Program text, symbols, and library images.
 *
 * Binaries in the simulator are real byte blobs (see elf.h/macho.h)
 * whose *text* is a named entry in a ProgramRegistry: a C++ callable
 * standing in for native machine code. Dynamic libraries are
 * LibraryImage objects whose exports are NativeFn symbols; the
 * dynamic linkers (dyld, the Android linker) resolve against a
 * LibraryRegistry the way the real loaders walk the filesystem.
 */

#ifndef CIDER_BINFMT_PROGRAM_H
#define CIDER_BINFMT_PROGRAM_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "kernel/process.h"
#include "kernel/types.h"

namespace cider::kernel {
class Kernel;
class Thread;
} // namespace cider::kernel

namespace cider::binfmt {

/** A dynamically typed value crossing a simulated function boundary. */
using Value = std::variant<std::monostate, std::int64_t, double,
                           std::string, void *>;

/** Extract an integer (accepting monostate as 0). */
std::int64_t valueI64(const Value &v);
double valueF64(const Value &v);
std::string valueStr(const Value &v);
void *valuePtr(const Value &v);

struct UserEnv;

/** "Native code": the body of a function exported by a library. */
using NativeFn = std::function<Value(UserEnv &, std::vector<Value> &)>;

/** Program entry point ("main" of a binary). */
using ProgramFn = std::function<int(UserEnv &)>;

/**
 * The user-space execution environment of a running simulated
 * program: which kernel/thread it runs on and its argv.
 */
struct UserEnv
{
    kernel::Kernel &kernel;
    kernel::Thread &thread;
    std::vector<std::string> argv;

    kernel::Process &process() { return thread.process(); }
};

/** One exported symbol of a library. */
struct Symbol
{
    std::string name;
    NativeFn fn;
};

/** Export table of a library image. */
class SymbolTable
{
  public:
    void add(const std::string &name, NativeFn fn);
    const Symbol *find(const std::string &name) const;
    std::vector<std::string> names() const;
    std::size_t size() const { return syms_.size(); }

  private:
    std::map<std::string, Symbol> syms_;
};

/**
 * A shared library as it exists "on disk": metadata plus callable
 * exports. Real bytes for the metadata live in VFS files; callables
 * are resolved through the registry by image name, mirroring how the
 * prototype copies binaries from iOS and runs them unmodified.
 */
struct LibraryImage
{
    std::string name;
    kernel::BinaryFormat format = kernel::BinaryFormat::MachO;
    std::vector<std::string> deps;
    std::uint64_t pages = 64; ///< mapped size (4 KB pages)
    /**
     * Handlers the image registers with its libc when loaded. dyld
     * registering one exit callback per image — and iOS libraries
     * installing many pthread_atfork callbacks — dominates iOS
     * fork/exit cost in the paper's Figure 5.
     */
    int atforkHandlers = 0;
    int exitHandlers = 0;
    SymbolTable exports;
    /** Dense slot in the registry, 0..size()-1, set by
     *  LibraryRegistry::add; a replacement keeps its name's slot, so
     *  dyld dedupes images by name through it. */
    std::uint32_t index = 0;
};

/**
 * All registered library images (one namespace per system). The
 * registry is filled while a system is set up: add() must not race a
 * lookup, a launch or another add().
 */
class LibraryRegistry
{
  public:
    /** Register @p image, replacing any image of the same name (the
     *  replaced one stays alive with the registry), and move
     *  generation(). */
    LibraryImage &add(LibraryImage image);
    LibraryImage *find(const std::string &name);
    const LibraryImage *find(const std::string &name) const;
    std::vector<std::string> names() const;
    std::size_t size() const { return images_.size(); }
    /** Pages of every registered image (the dyld shared cache). */
    std::uint64_t totalPages() const;
    /** Bumped by every add(): anything derived from the registry,
     *  such as dyld's launch plans, is stale once it moves. */
    std::uint64_t generation() const { return generation_; }

  private:
    std::map<std::string, std::unique_ptr<LibraryImage>> images_;
    /** Images add() replaced: a process that loaded one still points
     *  at it from its dyld image table. */
    std::vector<std::unique_ptr<LibraryImage>> retired_;
    std::uint64_t generation_ = 0;
};

/** Registered program entry points ("text segments"). */
class ProgramRegistry
{
  public:
    void add(const std::string &name, ProgramFn fn);
    const ProgramFn *find(const std::string &name) const;
    std::size_t size() const { return programs_.size(); }

  private:
    std::map<std::string, ProgramFn> programs_;
};

} // namespace cider::binfmt

#endif // CIDER_BINFMT_PROGRAM_H
