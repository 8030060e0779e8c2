#include "kernel/vfs.h"

#include <algorithm>

#include "base/cost_clock.h"
#include "base/logging.h"
#include "hw/device_profile.h"
#include "kernel/fault_rail.h"

namespace cider::kernel {

namespace {

/** Entries cached before the dentry table is wiped and restarted. */
constexpr std::size_t kDentryCacheCap = 8192;

/** In-place iterator over the components of a path; no allocation,
 *  empty and "." components skipped. */
class PathComponents
{
  public:
    explicit PathComponents(std::string_view path) : rest_(path) {}

    bool
    next(std::string_view *out)
    {
        while (!rest_.empty()) {
            std::size_t slash = rest_.find('/');
            std::string_view c = rest_.substr(0, slash);
            rest_ = (slash == std::string_view::npos)
                        ? std::string_view{}
                        : rest_.substr(slash + 1);
            if (!c.empty() && c != ".") {
                *out = c;
                return true;
            }
        }
        return false;
    }

  private:
    std::string_view rest_;
};

} // namespace

Vfs::Vfs(const hw::DeviceProfile &profile) : profile_(profile)
{
    root_ = std::make_shared<Inode>();
    root_->type = InodeType::Directory;
}

void
Vfs::addOverlay(const std::string &prefix, const std::string &target)
{
    std::lock_guard<std::mutex> lock(mu_);
    overlays_.emplace_back(prefix, target);
    // Longest prefix first so nested overlays behave like stacked
    // mounts.
    std::sort(overlays_.begin(), overlays_.end(),
              [](const auto &a, const auto &b) {
                  return a.first.size() > b.first.size();
              });
    // New overlays change what any path resolves to.
    bumpNamespaceGen();
}

void
Vfs::setDentryCacheEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mu_);
    cacheEnabled_ = enabled;
    if (!enabled)
        dentryCache_.clear();
}

DentryCacheStats
Vfs::dentryCacheStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    DentryCacheStats st;
    st.hits = cacheHits_;
    st.misses = cacheMisses_;
    st.entries = dentryCache_.size();
    st.enabled = cacheEnabled_;
    return st;
}

std::string
Vfs::rewrite(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rewriteImpl(path);
}

std::string
Vfs::rewriteImpl(std::string_view path) const
{
    for (const auto &[prefix, target] : overlays_) {
        if (path.starts_with(prefix) &&
            (path.size() == prefix.size() || path[prefix.size()] == '/')) {
            std::string out = target;
            out += path.substr(prefix.size());
            return out;
        }
    }
    return std::string(path);
}

std::vector<std::string>
Vfs::splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    PathComponents components(path);
    std::string_view c;
    while (components.next(&c)) {
        if (c == "..") {
            // Resolve to the parent; at the root, ".." stays put.
            if (!parts.empty())
                parts.pop_back();
            continue;
        }
        parts.emplace_back(c);
    }
    return parts;
}

Lookup
Vfs::walk(std::string_view effective) const
{
    Lookup out;
    // One frame per resolved component: (inode, name). ".." pops a
    // frame instead of being treated as a child name; only the final
    // component may be absent.
    std::vector<std::pair<InodePtr, std::string_view>> stack;
    PathComponents components(effective);
    std::string_view c;
    bool missing = false;
    while (components.next(&c)) {
        if (missing) {
            out.err = lnx::NOENT;
            return out;
        }
        if (c == "..") {
            if (stack.empty())
                continue; // "/.." resolves to the root itself
            if (stack.back().first->type != InodeType::Directory) {
                out.err = lnx::NOTDIR;
                return out;
            }
            stack.pop_back();
            continue;
        }
        InodePtr parent = stack.empty() ? root_ : stack.back().first;
        if (parent->type != InodeType::Directory) {
            out.err = lnx::NOTDIR;
            return out;
        }
        auto it = parent->children.find(c);
        InodePtr node =
            it == parent->children.end() ? nullptr : it->second;
        missing = (node == nullptr);
        stack.emplace_back(std::move(node), c);
    }
    if (stack.empty()) {
        out.inode = root_;
        out.parent = root_;
        return out;
    }
    out.parent =
        stack.size() >= 2 ? stack[stack.size() - 2].first : root_;
    out.leaf = std::string(stack.back().second);
    out.inode = stack.back().first;
    return out;
}

Lookup
Vfs::lookup(std::string_view path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lookupImpl(path);
}

Lookup
Vfs::lookupImpl(std::string_view path) const
{
    // Fault site: a failed lookup models a media/metadata read error
    // (checked before the dentry cache so hits cannot mask it).
    if (CIDER_FAULT_POINT("vfs.lookup")) {
        Lookup out;
        out.err = lnx::IO;
        return out;
    }
    if (cacheEnabled_) {
        auto it = dentryCache_.find(path);
        if (it != dentryCache_.end() &&
            it->second.gen == namespaceGen_) {
            ++cacheHits_;
            return it->second.result;
        }
        ++cacheMisses_;
    }
    Lookup out = walk(rewriteImpl(path));
    if (cacheEnabled_ && out.err == 0) {
        if (dentryCache_.size() >= kDentryCacheCap)
            dentryCache_.clear();
        DentryEntry &entry = dentryCache_[std::string(path)];
        entry.gen = namespaceGen_;
        entry.result = out;
    }
    return out;
}

SyscallResult
Vfs::mkdirAll(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string effective = rewriteImpl(path);
    std::vector<InodePtr> stack;
    PathComponents components(effective);
    std::string_view c;
    while (components.next(&c)) {
        InodePtr dir = stack.empty() ? root_ : stack.back();
        if (dir->type != InodeType::Directory)
            return SyscallResult::failure(lnx::NOTDIR);
        if (c == "..") {
            if (!stack.empty())
                stack.pop_back();
            continue;
        }
        auto it = dir->children.find(c);
        if (it == dir->children.end()) {
            auto node = std::make_shared<Inode>();
            node->type = InodeType::Directory;
            dir->children.emplace(std::string(c), node);
            bumpNamespaceGen();
            stack.push_back(node);
        } else {
            stack.push_back(it->second);
        }
    }
    InodePtr last = stack.empty() ? root_ : stack.back();
    if (last->type != InodeType::Directory)
        return SyscallResult::failure(lnx::NOTDIR);
    return SyscallResult::success();
}

SyscallResult
Vfs::mkdir(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (lk.inode)
        return SyscallResult::failure(lnx::EXIST);
    auto node = std::make_shared<Inode>();
    node->type = InodeType::Directory;
    lk.parent->children[lk.leaf] = node;
    bumpNamespaceGen();
    return SyscallResult::success();
}

SyscallResult
Vfs::create(const std::string &path, InodePtr *out)
{
    std::lock_guard<std::mutex> lock(mu_);
    return createImpl(path, out);
}

SyscallResult
Vfs::createImpl(const std::string &path, InodePtr *out)
{
    // Fault site: creation failing for want of space.
    if (CIDER_FAULT_POINT("vfs.create"))
        return SyscallResult::failure(lnx::NOSPC);
    charge(profile_.storageCreateNs / 2);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (lk.leaf.empty())
        return SyscallResult::failure(lnx::ISDIR);
    if (lk.inode) {
        if (lk.inode->type == InodeType::Directory)
            return SyscallResult::failure(lnx::ISDIR);
        lk.inode->data.clear();
        if (out)
            *out = lk.inode;
        return SyscallResult::success();
    }
    auto node = std::make_shared<Inode>();
    node->type = InodeType::Regular;
    lk.parent->children[lk.leaf] = node;
    bumpNamespaceGen();
    if (out)
        *out = node;
    return SyscallResult::success();
}

SyscallResult
Vfs::unlink(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    charge(profile_.storageCreateNs / 2);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (!lk.inode)
        return SyscallResult::failure(lnx::NOENT);
    if (lk.inode->type == InodeType::Directory)
        return SyscallResult::failure(lnx::ISDIR);
    lk.parent->children.erase(lk.leaf);
    bumpNamespaceGen();
    return SyscallResult::success();
}

SyscallResult
Vfs::rename(const std::string &from, const std::string &to)
{
    std::lock_guard<std::mutex> lock(mu_);
    charge(profile_.storageCreateNs / 4);
    Lookup src = lookupImpl(from);
    if (src.err)
        return SyscallResult::failure(src.err);
    if (!src.inode)
        return SyscallResult::failure(lnx::NOENT);
    Lookup dst = lookupImpl(to);
    if (dst.err)
        return SyscallResult::failure(dst.err);
    if (dst.leaf.empty())
        return SyscallResult::failure(lnx::ISDIR);
    if (dst.inode && dst.inode->type == InodeType::Directory)
        return SyscallResult::failure(lnx::ISDIR);
    dst.parent->children[dst.leaf] = src.inode;
    // Self-rename must not drop the file.
    if (src.parent != dst.parent || src.leaf != dst.leaf)
        src.parent->children.erase(src.leaf);
    bumpNamespaceGen();
    return SyscallResult::success();
}

SyscallResult
Vfs::rmdir(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (!lk.inode)
        return SyscallResult::failure(lnx::NOENT);
    if (lk.inode->type != InodeType::Directory)
        return SyscallResult::failure(lnx::NOTDIR);
    if (!lk.inode->children.empty())
        return SyscallResult::failure(lnx::NOTEMPTY);
    lk.parent->children.erase(lk.leaf);
    bumpNamespaceGen();
    return SyscallResult::success();
}

SyscallResult
Vfs::readdir(const std::string &path, std::vector<std::string> &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (!lk.inode)
        return SyscallResult::failure(lnx::NOENT);
    if (lk.inode->type != InodeType::Directory)
        return SyscallResult::failure(lnx::NOTDIR);
    out.clear();
    for (const auto &[name, node] : lk.inode->children)
        out.push_back(name);
    return SyscallResult::success();
}

SyscallResult
Vfs::mknod(const std::string &path, Device *dev)
{
    std::lock_guard<std::mutex> lock(mu_);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (lk.inode)
        return SyscallResult::failure(lnx::EXIST);
    auto node = std::make_shared<Inode>();
    node->type = InodeType::DeviceNode;
    node->device = dev;
    lk.parent->children[lk.leaf] = node;
    bumpNamespaceGen();
    return SyscallResult::success();
}

SyscallResult
Vfs::writeFile(const std::string &path, const Bytes &data)
{
    std::lock_guard<std::mutex> lock(mu_);
    InodePtr node;
    SyscallResult r = createImpl(path, &node);
    if (!r.ok())
        return r;
    charge(data.size() * profile_.storageWriteBytePs / 1000);
    node->data = data;
    return SyscallResult::success(static_cast<std::int64_t>(data.size()));
}

SyscallResult
Vfs::readFile(const std::string &path, Bytes &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Lookup lk = lookupImpl(path);
    if (lk.err)
        return SyscallResult::failure(lk.err);
    if (!lk.inode)
        return SyscallResult::failure(lnx::NOENT);
    if (lk.inode->type != InodeType::Regular)
        return SyscallResult::failure(lnx::ISDIR);
    charge(lk.inode->data.size() * profile_.storageReadBytePs / 1000);
    out = lk.inode->data;
    return SyscallResult::success(static_cast<std::int64_t>(out.size()));
}

bool
Vfs::exists(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Lookup lk = lookupImpl(path);
    return lk.err == 0 && lk.inode != nullptr;
}

} // namespace cider::kernel
