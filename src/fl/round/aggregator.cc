#include "fl/round/aggregator.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "fl/round/dispatch.h"
#include "fleet/hierarchy.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace round {

AggregationStats
fedAvg(RoundContext &ctx, std::size_t edge_groups, std::size_t fold_chunk)
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
            contribs.push_back({p.client_id, &ctx.updates[i].weights,
                                static_cast<double>(ctx.updates[i].samples) /
                                    static_cast<double>(stats.samples),
                                p.update_scale});
    }

    std::vector<double> acc;
    if (edge_groups <= 1) {
        fleet::foldContributions(contribs, gw, acc);
    } else {
        std::sort(contribs.begin(), contribs.end(),
                  [](const fleet::Contribution &a,
                     const fleet::Contribution &b) {
                      return a.client_id < b.client_id;
                  });
        fleet::hierarchicalFold(contribs, gw, fold_chunk, edge_groups,
                                ctx.pool, acc);
    }
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
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < ctx.updates.size(); ++i) {
        ClientRoundReport &p = ctx.result.participants[i];
        if (p.dropped)
            continue;
        if (!finiteUpdate(ctx.updates[i].weights)) {
            p.dropped = true;
            p.drop_reason = DropReason::Diverged;
            ++ctx.result.dropped_diverged;
            ++rejected;
            traceEvent(obs::tracing::EventKind::Reject, ctx.round, i,
                       p.client_id, ctx.result.ts_end,
                       obs::tracing::Reason::Diverged);
            util::logWarn("round " + std::to_string(ctx.round) +
                          ": client " + std::to_string(p.client_id) +
                          " update diverged; rejected");
        }
    }
    return rejected;
}

} // namespace round
} // namespace fl
} // namespace fedgpo
