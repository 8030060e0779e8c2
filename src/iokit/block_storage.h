/**
 * @file
 * IOBlockStorageDriver: the block-device family.
 *
 * Matches a bridged Linux device of class "block" (score 900, match
 * category "storage"). I/O requests queue up to the provider's
 * "queue-depth" property and drain in FIFO order when the queue
 * fills, on a Flush, or before a Read needs the data — the shape of
 * a real storage family's request queue, scaled to the simulation.
 * Each drained request charges storage costs from the device profile;
 * FaultRail site "blk.io" fails individual requests.
 */

#ifndef CIDER_IOKIT_BLOCK_STORAGE_H
#define CIDER_IOKIT_BLOCK_STORAGE_H

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>

#include "iokit/io_service.h"
#include "iokit/linux_bridge.h"

namespace cider::hw {
struct DeviceProfile;
} // namespace cider::hw

namespace cider::iokit {

/** IOBlockStorageDriver external method selectors. */
namespace blksel {

inline constexpr std::uint32_t Read = 0;     ///< in: lba; out: value
inline constexpr std::uint32_t Write = 1;    ///< in: lba, value
inline constexpr std::uint32_t Flush = 2;    ///< out: drained count
inline constexpr std::uint32_t GetStats = 3; ///< out: q,done,err,depth

} // namespace blksel

class IOBlockStorageDriver : public IOService
{
  public:
    IOBlockStorageDriver(ducttape::KernelCxxRuntime &rt,
                         const hw::DeviceProfile &profile);

    const char *className() const override
    {
        return "IOBlockStorageDriver";
    }

    bool probe(IORegistryEntry &provider) override;
    bool start(IORegistryEntry &provider) override;

    xnu::kern_return_t
    externalMethod(std::uint32_t selector,
                   const std::vector<std::int64_t> &input,
                   std::vector<std::int64_t> &output) override;

    std::size_t queueDepth() const { return depth_; }
    std::size_t pending() const;
    std::uint64_t completed() const;
    std::uint64_t ioErrors() const;

    static void registerDriver(ducttape::KernelCxxRuntime &rt,
                               IOCatalogue &catalogue,
                               const hw::DeviceProfile &profile);

  private:
    struct Request
    {
        bool write = false;
        std::int64_t lba = 0;
        std::int64_t value = 0;
    };

    /** Complete every queued request in order (locked). */
    std::size_t drainLocked();

    const hw::DeviceProfile &profile_;
    std::size_t depth_ = 8;

    mutable std::mutex mu_;
    std::deque<Request> queue_;
    std::map<std::int64_t, std::int64_t> store_;
    std::uint64_t completed_ = 0;
    std::uint64_t ioErrors_ = 0;
};

} // namespace cider::iokit

#endif // CIDER_IOKIT_BLOCK_STORAGE_H
