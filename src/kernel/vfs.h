/**
 * @file
 * In-memory virtual filesystem of the simulated domestic kernel.
 *
 * A plain hierarchical namespace of inodes plus an *overlay table*:
 * Cider overlays an iOS filesystem hierarchy onto the Android one so
 * foreign apps see familiar paths such as /Documents (paper section
 * 3). Overlays are longest-prefix path rewrites applied during
 * resolution.
 *
 * All operations charge storage costs from the kernel's DeviceProfile
 * so filesystem-heavy benchmarks (file create/delete, storage
 * read/write) reflect the device being simulated.
 *
 * Resolution is built for the dyld workload (the same 115-dylib
 * closure walked on every exec): components are iterated as
 * string_views with no intermediate vector, directory lookups are
 * heterogeneous (no key materialisation), and a generation-stamped
 * dentry cache short-circuits repeated full-path walks. Any
 * namespace mutation — create/unlink/rename/rmdir/mknod/overlay-add
 * — bumps the generation, atomically invalidating every cached
 * entry, so the cache can never serve a stale inode.
 */

#ifndef CIDER_KERNEL_VFS_H
#define CIDER_KERNEL_VFS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/bytes.h"
#include "kernel/types.h"

namespace cider::hw {
struct DeviceProfile;
} // namespace cider::hw

namespace cider::kernel {

class Device;

/** Inode type tag. */
enum class InodeType
{
    Regular,
    Directory,
    DeviceNode,
};

/** One filesystem object. */
struct Inode
{
    InodeType type = InodeType::Regular;
    Bytes data;                              ///< regular-file contents
    /** Directory entries; the transparent comparator lets lookups
     *  probe with string_view components without allocating keys. */
    std::map<std::string, std::shared_ptr<Inode>, std::less<>> children;
    Device *device = nullptr;                ///< device nodes
    /**
     * Binary-image tag: names a registered LibraryImage or program so
     * loaders can attach callable text to an on-disk blob.
     */
    std::string imageTag;
};

using InodePtr = std::shared_ptr<Inode>;

/** Result of a path lookup. */
struct Lookup
{
    InodePtr inode;  ///< null when the final component is missing
    InodePtr parent; ///< directory that holds (or would hold) it
    std::string leaf;
    int err = 0;     ///< non-zero when resolution itself failed
};

/** Dentry-cache observability for tests and benches. */
struct DentryCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    bool enabled = true;
};

/** The mounted namespace. */
class Vfs
{
  public:
    explicit Vfs(const hw::DeviceProfile &profile);

    /**
     * Add an overlay: any path beginning with @p prefix is rewritten
     * to @p target before resolution. Longest prefix wins, matching
     * the behaviour of stacked mounts.
     */
    void addOverlay(const std::string &prefix, const std::string &target);

    /** Apply overlay rewriting only (exposed for tests). */
    std::string rewrite(const std::string &path) const;

    /** Resolve @p path; never creates anything. */
    Lookup lookup(std::string_view path) const;

    /** Create all missing directories along @p path. */
    SyscallResult mkdirAll(const std::string &path);

    SyscallResult mkdir(const std::string &path);

    /** Create (or truncate) a regular file; returns its inode. */
    SyscallResult create(const std::string &path, InodePtr *out = nullptr);

    SyscallResult unlink(const std::string &path);

    /** Move/rename a file or directory. */
    SyscallResult rename(const std::string &from, const std::string &to);

    SyscallResult rmdir(const std::string &path);

    /** List names in a directory. */
    SyscallResult readdir(const std::string &path,
                          std::vector<std::string> &out) const;

    /** Register a device node at @p path. */
    SyscallResult mknod(const std::string &path, Device *dev);

    /** Whole-file convenience helpers used by loaders and tools. */
    SyscallResult writeFile(const std::string &path, const Bytes &data);
    SyscallResult readFile(const std::string &path, Bytes &out) const;

    /** True when @p path resolves to an existing inode. */
    bool exists(const std::string &path) const;

    const hw::DeviceProfile &profile() const { return profile_; }

    /**
     * Split an absolute path into components; "." and "" dropped and
     * ".." resolved by popping the previous component (a leading
     * ".." at the root stays at the root, as in POSIX).
     */
    static std::vector<std::string> splitPath(const std::string &path);

    /** Toggle the dentry cache (on by default); disabling clears it. */
    void setDentryCacheEnabled(bool enabled);

    DentryCacheStats dentryCacheStats() const;

  private:
    struct DentryEntry
    {
        std::uint64_t gen = 0;
        Lookup result;
    };

    /// @{ Unlocked bodies; public entry points take mu_ once and call
    /// these, so internal composition (writeFile → create → lookup)
    /// never re-enters the lock.
    std::string rewriteImpl(std::string_view path) const;
    Lookup lookupImpl(std::string_view path) const;
    SyscallResult createImpl(const std::string &path, InodePtr *out);
    /// @}

    /** Resolve an overlay-rewritten path by walking components. */
    Lookup walk(std::string_view effective) const;

    /** Invalidate every cached dentry (namespace mutated). */
    void bumpNamespaceGen() { ++namespaceGen_; }

    const hw::DeviceProfile &profile_;

    /**
     * One lock for the *namespace*: inode tree structure, overlay
     * table, dentry cache, and generation counter (decomposed from
     * the old whole-kernel serialization — SMP host threads resolving
     * disjoint paths contend only here, not on the kernel). Inode
     * *contents* (Inode::data) are not covered: file data follows the
     * owning process's fd-level serialization, like page-cache pages
     * vs. the dcache in a real kernel.
     */
    mutable std::mutex mu_;
    InodePtr root_;
    std::vector<std::pair<std::string, std::string>> overlays_;

    /** Hashes a path key and a path view alike, so a cache probe
     *  needs no key string. */
    struct PathHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view path) const noexcept
        {
            return std::hash<std::string_view>{}(path);
        }
    };

    /**
     * Dentry cache: original (pre-rewrite) path -> resolved Lookup,
     * valid only while its generation matches namespaceGen_. Probed
     * with the caller's view; only a miss builds a key. Mutable
     * because lookup() is logically const; mu_ covers it.
     */
    mutable std::unordered_map<std::string, DentryEntry, PathHash,
                               std::equal_to<>>
        dentryCache_;
    mutable std::uint64_t cacheHits_ = 0;
    mutable std::uint64_t cacheMisses_ = 0;
    std::uint64_t namespaceGen_ = 0;
    bool cacheEnabled_ = true;
};

} // namespace cider::kernel

#endif // CIDER_KERNEL_VFS_H
