#include "fl/round/aggregator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "fleet/hierarchy.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace round {

namespace {

/** Gather stats over the kept participants and their sample mass. */
AggregationStats
keptStats(const RoundContext &ctx)
{
    AggregationStats stats;
    for (std::size_t i = 0; i < ctx.result.participants.size(); ++i) {
        const ClientRoundReport &p = ctx.result.participants[i];
        if (p.dropped)
            continue;
        ++stats.contributors;
        stats.samples += ctx.updates[i].samples;
        if (p.update_scale < 1.0)
            ++stats.scaled;
    }
    return stats;
}

/**
 * The kept updates as fold contributions, in participant order: sample
 * weight samples_i / stats.samples, blend scale update_scale.
 */
std::vector<fleet::Contribution>
keptContributions(const RoundContext &ctx, const AggregationStats &stats)
{
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
    return contribs;
}

} // namespace

AggregationStats
FedAvgAggregator::aggregate(RoundContext &ctx)
{
    assert(ctx.global_weights != nullptr);
    assert(ctx.updates.size() == ctx.result.participants.size());
    std::vector<float> &gw = *ctx.global_weights;

    const AggregationStats stats = keptStats(ctx);
    if (stats.samples == 0)
        return stats;

    // One left-to-right fold in participant order, the summation order
    // the RoundGolden hexfloats pin.
    std::vector<double> acc;
    fleet::foldContributions(keptContributions(ctx, stats), gw, acc);
    for (std::size_t j = 0; j < acc.size(); ++j)
        gw[j] = static_cast<float>(acc[j]);
    if (ctx.global_model != nullptr)
        ctx.global_model->loadParams(gw);
    return stats;
}

HierarchicalFedAvgAggregator::HierarchicalFedAvgAggregator(
    std::size_t edge_groups, std::size_t fold_chunk)
    : edge_groups_(edge_groups == 0 ? 1 : edge_groups),
      fold_chunk_(fold_chunk == 0 ? 1 : fold_chunk)
{
}

AggregationStats
HierarchicalFedAvgAggregator::aggregate(RoundContext &ctx)
{
    assert(ctx.global_weights != nullptr);
    assert(ctx.updates.size() == ctx.result.participants.size());
    std::vector<float> &gw = *ctx.global_weights;

    const AggregationStats stats = keptStats(ctx);
    if (stats.samples == 0)
        return stats;

    // The fold-order invariant: contributions ascend by client id, so
    // the fold tree never depends on the selection draw order, the edge
    // count, or the thread count.
    std::vector<fleet::Contribution> contribs = keptContributions(ctx, stats);
    std::sort(contribs.begin(), contribs.end(),
              [](const fleet::Contribution &a,
                 const fleet::Contribution &b) {
                  return a.client_id < b.client_id;
              });

    std::vector<double> acc;
    fleet::hierarchicalFold(contribs, gw, fold_chunk_, edge_groups_,
                            ctx.pool, acc);
    for (std::size_t j = 0; j < acc.size(); ++j)
        gw[j] = static_cast<float>(acc[j]);
    if (ctx.global_model != nullptr)
        ctx.global_model->loadParams(gw);
    return stats;
}

TrimmedMeanAggregator::TrimmedMeanAggregator(double trim_fraction)
    : trim_fraction_(std::clamp(trim_fraction, 0.0, 0.5))
{
}

AggregationStats
TrimmedMeanAggregator::aggregate(RoundContext &ctx)
{
    assert(ctx.global_weights != nullptr);
    assert(ctx.updates.size() == ctx.result.participants.size());
    std::vector<float> &gw = *ctx.global_weights;

    const AggregationStats stats = keptStats(ctx);
    if (stats.contributors == 0)
        return stats;

    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < ctx.result.participants.size(); ++i)
        if (!ctx.result.participants[i].dropped)
            kept.push_back(i);

    const std::size_t n = kept.size();
    std::size_t trim =
        static_cast<std::size_t>(trim_fraction_ * static_cast<double>(n));
    if (2 * trim >= n)
        trim = (n - 1) / 2;

    std::vector<double> column(n);
    for (std::size_t j = 0; j < gw.size(); ++j) {
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t i = kept[c];
            const ClientRoundReport &p = ctx.result.participants[i];
            const double w = ctx.updates[i].weights[j];
            column[c] = p.update_scale == 1.0
                            ? w
                            : gw[j] + p.update_scale * (w - gw[j]);
        }
        std::sort(column.begin(), column.end());
        double sum = 0.0;
        for (std::size_t c = trim; c < n - trim; ++c)
            sum += column[c];
        gw[j] = static_cast<float>(sum /
                                   static_cast<double>(n - 2 * trim));
    }
    if (ctx.global_model != nullptr)
        ctx.global_model->loadParams(gw);
    return stats;
}

} // namespace round
} // namespace fl
} // namespace fedgpo
