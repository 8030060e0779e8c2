/**
 * @file
 * Per-persona thread-local storage areas.
 *
 * A thread's persona selects both the kernel ABI *and* the TLS area
 * used during execution: bionic and Darwin's libsystem lay out TLS
 * differently (errno lives at a different offset, the thread ID in a
 * different slot), so Cider keeps one TLS area per persona per thread
 * and set_persona swaps the active pointer (paper section 4.3).
 */

#ifndef CIDER_PERSONA_TLS_H
#define CIDER_PERSONA_TLS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "kernel/thread.h"
#include "kernel/types.h"

namespace cider::persona {

/** TLS layout parameters of one persona's libc. */
struct TlsLayout
{
    std::size_t size;
    std::size_t errnoOffset;
    std::size_t threadIdOffset;
};

/** bionic's layout (domestic). */
const TlsLayout &androidTlsLayout();
/** Darwin libsystem's layout (foreign) — errno lives elsewhere. */
const TlsLayout &iosTlsLayout();

const TlsLayout &layoutFor(kernel::Persona p);

/** One persona's TLS block for one thread. */
class TlsArea
{
  public:
    explicit TlsArea(const TlsLayout &layout);

    int errnoValue() const;
    void setErrno(int err);

    void setThreadId(std::uint64_t tid);

    const TlsLayout &layout() const { return *layout_; }

  private:
    const TlsLayout *layout_;
    std::vector<std::uint8_t> data_;
};

/**
 * All TLS areas of one thread plus the active-area pointer. Stored in
 * the thread's ThreadSlot::PersonaTls slot.
 */
class ThreadTls
{
  public:
    /** Area for @p p, created on first use with the right layout. */
    TlsArea &area(kernel::Persona p);

    /** The area the active persona points at. */
    TlsArea &active();
    kernel::Persona activePersona() const { return active_; }

    /** Swap the active TLS pointer (the set_persona TLS half). */
    void activate(kernel::Persona p);

    /** Fetch (creating on demand) a thread's TLS state. */
    static ThreadTls &of(kernel::Thread &t);

  private:
    /** Indexed by persona; an area is created on first use. */
    std::array<std::optional<TlsArea>, 2> areas_;
    kernel::Persona active_ = kernel::Persona::Android;
    bool initialised_ = false;
};

} // namespace cider::persona

#endif // CIDER_PERSONA_TLS_H
