#include "persona/tls.h"

#include <cstring>

#include "base/logging.h"

namespace cider::persona {

const TlsLayout &
androidTlsLayout()
{
    // bionic: errno early in the control block.
    static const TlsLayout layout{256, 8, 0};
    return layout;
}

const TlsLayout &
iosTlsLayout()
{
    // Darwin: errno at a different offset and a larger block — "the
    // errno pointer is at a different location in the iOS TLS than in
    // the Android TLS" (paper section 4.3).
    static const TlsLayout layout{512, 24, 16};
    return layout;
}

const TlsLayout &
layoutFor(kernel::Persona p)
{
    return p == kernel::Persona::Android ? androidTlsLayout()
                                         : iosTlsLayout();
}

TlsArea::TlsArea(const TlsLayout &layout)
    : layout_(&layout), data_(layout.size, 0)
{}

int
TlsArea::errnoValue() const
{
    int v = 0;
    std::memcpy(&v, data_.data() + layout_->errnoOffset, sizeof(v));
    return v;
}

void
TlsArea::setErrno(int err)
{
    std::memcpy(data_.data() + layout_->errnoOffset, &err, sizeof(err));
}

std::uint64_t
TlsArea::threadId() const
{
    std::uint64_t v = 0;
    std::memcpy(&v, data_.data() + layout_->threadIdOffset, sizeof(v));
    return v;
}

void
TlsArea::setThreadId(std::uint64_t tid)
{
    std::memcpy(data_.data() + layout_->threadIdOffset, &tid,
                sizeof(tid));
}

TlsArea &
ThreadTls::area(kernel::Persona p)
{
    std::optional<TlsArea> &slot = areas_[static_cast<std::size_t>(p)];
    if (!slot)
        slot.emplace(layoutFor(p));
    return *slot;
}

TlsArea &
ThreadTls::active()
{
    return area(active_);
}

void
ThreadTls::activate(kernel::Persona p)
{
    active_ = p;
    initialised_ = true;
}

ThreadTls &
ThreadTls::of(kernel::Thread &t)
{
    ThreadTls &tls = t.ext().get<ThreadTls>("persona.tls");
    if (!tls.initialised_) {
        tls.active_ = t.persona();
        tls.initialised_ = true;
        tls.area(t.persona()).setThreadId(
            static_cast<std::uint64_t>(t.tid()));
    }
    return tls;
}

int
currentErrno(kernel::Thread &t)
{
    return ThreadTls::of(t).active().errnoValue();
}

void
setCurrentErrno(kernel::Thread &t, int err)
{
    ThreadTls::of(t).active().setErrno(err);
}

} // namespace cider::persona
