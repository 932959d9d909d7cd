#include "fl/round/aggregator.h"

#include <cassert>
#include <string>
#include <vector>

#include "fl/round/dispatch.h"
#include "fleet/fold.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace round {

AggregationStats
fedAvg(RoundContext &ctx)
{
    assert(ctx.global_weights != nullptr);
    assert(ctx.updates.size() == ctx.result.participants.size());
    std::vector<float> &gw = *ctx.global_weights;

    AggregationStats stats;
    for (std::size_t i = 0; i < ctx.updates.size(); ++i) {
        const ClientRoundReport &p = ctx.result.participants[i];
        if (p.dropped)
            continue;
        ++stats.contributors;
        stats.samples += ctx.updates[i].samples;
        if (p.update_scale < 1.0)
            ++stats.scaled;
    }
    if (stats.samples == 0)
        return stats;

    std::vector<fleet::Contribution> contribs;
    contribs.reserve(stats.contributors);
    for (std::size_t i = 0; i < ctx.updates.size(); ++i) {
        const ClientRoundReport &p = ctx.result.participants[i];
        if (!p.dropped)
            contribs.push_back({&ctx.updates[i].weights,
                                static_cast<double>(ctx.updates[i].samples) /
                                    static_cast<double>(stats.samples),
                                p.update_scale});
    }

    std::vector<double> acc;
    fleet::foldContributions(contribs, gw, acc);
    for (std::size_t j = 0; j < acc.size(); ++j)
        gw[j] = static_cast<float>(acc[j]);
    if (ctx.global_model != nullptr)
        ctx.global_model->loadParams(gw);
    return stats;
}

std::size_t
rejectDivergedUpdates(RoundContext &ctx)
{
    assert(ctx.updates.size() == ctx.result.participants.size());
    std::vector<char> diverged(ctx.updates.size(), 0);
    auto scan = [&](std::size_t i, std::size_t) {
        diverged[i] = !ctx.result.participants[i].dropped &&
                      !finiteUpdate(ctx.updates[i].weights);
    };
    if (ctx.pool != nullptr) {
        ctx.pool->parallelFor(diverged.size(), scan);
    } else {
        for (std::size_t i = 0; i < diverged.size(); ++i)
            scan(i, 0);
    }

    std::size_t rejected = 0;
    for (std::size_t i = 0; i < diverged.size(); ++i) {
        if (!diverged[i])
            continue;
        ClientRoundReport &p = ctx.result.participants[i];
        p.dropped = true;
        p.drop_reason = DropReason::Diverged;
        ++ctx.result.dropped_diverged;
        ++rejected;
        traceEvent(obs::tracing::EventKind::Reject, ctx.round, i,
                   p.client_id, ctx.result.ts_end,
                   obs::tracing::Reason::Diverged);
        util::logWarn("round " + std::to_string(ctx.round) + ": client " +
                      std::to_string(p.client_id) +
                      " update diverged; rejected");
    }
    return rejected;
}

} // namespace round
} // namespace fl
} // namespace fedgpo
