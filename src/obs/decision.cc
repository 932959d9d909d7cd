#include "obs/decision.h"

#include <sstream>

#include "util/json.h"

namespace fedgpo {
namespace obs {

namespace {

// Non-finite values become null, so a diverged round's decision record
// stays parseable inside the JSONL trace line that embeds it.
using util::jsonNumber;

const char *
b(bool v)
{
    return v ? "true" : "false";
}

} // namespace

std::string
decisionJson(const DecisionRecord &r)
{
    std::ostringstream os;
    os << "{\"round\":" << r.round;
    os << ",\"epsilon\":" << jsonNumber(r.epsilon);
    os << ",\"k\":{\"state\":" << r.k_state << ",\"action\":" << r.k_action
       << ",\"value\":" << r.k_value << ",\"explored\":" << b(r.k_explored)
       << ",\"swept\":" << b(r.k_swept) << ",\"q_row\":[";
    for (std::size_t i = 0; i < r.k_qrow.size(); ++i) {
        if (i > 0)
            os << ",";
        os << jsonNumber(r.k_qrow[i]);
    }
    os << "]}";
    os << ",\"devices\":[";
    for (std::size_t i = 0; i < r.devices.size(); ++i) {
        const DeviceDecision &d = r.devices[i];
        if (i > 0)
            os << ",";
        os << "{\"id\":" << d.client_id << ",\"state\":" << d.state
           << ",\"action\":" << d.action << ",\"batch\":" << d.batch
           << ",\"epochs\":" << d.epochs
           << ",\"explored\":" << b(d.explored)
           << ",\"q\":" << jsonNumber(d.q) << ",\"visits\":" << d.visits
           << "}";
    }
    os << "]";
    const RewardTerms &w = r.reward;
    os << ",\"reward\":{\"total\":" << jsonNumber(w.total)
       << ",\"energy_global_term\":" << jsonNumber(w.energy_global_term)
       << ",\"energy_local_term\":" << jsonNumber(w.energy_local_term)
       << ",\"accuracy_term\":" << jsonNumber(w.accuracy_term)
       << ",\"improvement_term\":" << jsonNumber(w.improvement_term)
       << ",\"stall_penalty\":" << jsonNumber(w.stall_penalty)
       << ",\"abort_penalty\":" << jsonNumber(w.abort_penalty)
       << ",\"staleness_term\":" << jsonNumber(w.staleness_term)
       << ",\"stall_branch\":" << b(w.stall_branch)
       << ",\"aborted\":" << b(w.aborted) << "}";
    os << ",\"device_reward_mean\":" << jsonNumber(r.device_reward_mean);
    os << ",\"devices_rewarded\":" << r.devices_rewarded;
    os << ",\"complete\":" << b(r.complete);
    os << "}";
    return os.str();
}

} // namespace obs
} // namespace fedgpo
