#include "fl/round/straggler_policy.h"

#include <algorithm>

#include "util/stats.h"

namespace fedgpo {
namespace fl {
namespace round {

double
dropStragglers(RoundContext &ctx, double deadline_factor)
{
    std::vector<double> times;
    times.reserve(ctx.result.participants.size());
    for (const ClientRoundReport &p : ctx.result.participants)
        if (!p.dropped)
            times.push_back(p.cost.t_round);
    if (times.empty())
        return 0.0;
    const double deadline =
        deadline_factor * util::quantile(std::move(times), 0.5);

    double round_time = 0.0;
    for (ClientRoundReport &p : ctx.result.participants) {
        if (p.dropped)
            continue;
        if (p.cost.t_round > deadline) {
            const double frac = deadline / p.cost.t_round;
            p.dropped = true;
            p.drop_reason = DropReason::Straggler;
            ++ctx.result.dropped_straggler;
            p.cost.e_comp *= frac;
            p.cost.e_comm *= frac;
            p.cost.e_total = p.cost.e_comp + p.cost.e_comm;
            round_time = std::max(round_time, deadline);
        } else {
            round_time = std::max(round_time, p.cost.t_round);
        }
    }
    return round_time;
}

} // namespace round
} // namespace fl
} // namespace fedgpo
