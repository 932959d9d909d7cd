#include "fl/types.h"

#include <sstream>

namespace fedgpo {
namespace fl {

std::string
GlobalParams::toString() const
{
    std::ostringstream os;
    os << "(" << batch << ", " << epochs << ", " << clients << ")";
    return os.str();
}

const char *
protocolModeName(ProtocolMode mode)
{
    switch (mode) {
      case ProtocolMode::Sync:
        return "sync";
      case ProtocolMode::Async:
        return "async";
      case ProtocolMode::Buffered:
        return "buffered";
    }
    return "unknown";
}

const char *
dropReasonName(DropReason reason)
{
    switch (reason) {
      case DropReason::None:
        return "none";
      case DropReason::Straggler:
        return "straggler";
      case DropReason::Diverged:
        return "diverged";
      case DropReason::Offline:
        return "offline";
      case DropReason::Crashed:
        return "crashed";
      case DropReason::UploadFailed:
        return "upload_failed";
      case DropReason::Churned:
        return "churned";
      case DropReason::Stale:
        return "stale";
      case DropReason::Duplicate:
        return "duplicate";
    }
    return "unknown";
}

} // namespace fl
} // namespace fedgpo
