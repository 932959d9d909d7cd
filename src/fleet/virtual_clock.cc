#include "fleet/virtual_clock.h"

#include <cassert>

namespace fedgpo {
namespace fleet {

void
VirtualClock::schedule(double ts, std::size_t client_id,
                       FleetEvent::Kind kind, std::uint64_t tag)
{
    FleetEvent event;
    event.ts = ts;
    event.client_id = client_id;
    event.kind = kind;
    event.seq = next_seq_++;
    event.tag = tag;
    queue_.push(event);
}

FleetEvent
VirtualClock::pop()
{
    assert(!queue_.empty());
    FleetEvent event = queue_.top();
    queue_.pop();
    return event;
}

void
VirtualClock::advanceTo(double ts)
{
    if (ts > now_)
        now_ = ts;
}

} // namespace fleet
} // namespace fedgpo
