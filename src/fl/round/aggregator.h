/**
 * @file
 * FedAvg, the round pipeline's server-side aggregation rule, and the
 * divergence check that runs before it.
 */

#ifndef FEDGPO_FL_ROUND_AGGREGATOR_H_
#define FEDGPO_FL_ROUND_AGGREGATOR_H_

#include <cstddef>

#include "fl/round/round_context.h"

namespace fedgpo {
namespace fl {
namespace round {

/**
 * FedAvg (Algorithm 1): fold the round's kept updates into the global
 * weights as a sample-weighted average, accumulated in double.
 *
 * Reads ctx.updates and ctx.result.participants (drop flags and
 * update_scale already final), writes *ctx.global_weights, and loads the
 * new weights into *ctx.global_model when it is non-null. With no kept
 * sample the global weights stay untouched. A participant with
 * update_scale s < 1 contributes g + s * (w - g) (its update blended
 * toward the previous global weights g) instead of its raw weights w.
 *
 * With edge_groups <= 1 the kept updates fold left to right in
 * participant order, the order the RoundGolden hexfloats pin. Otherwise
 * they are sorted ascending by client id and edge aggregators fold them
 * into fold_chunk-sized partial sums that the server reduces in chunk
 * order (fleet::hierarchicalFold). That tree depends only on the client
 * ids and the chunk size, so the edge-group and thread counts set
 * parallelism only, and a chunk spanning every contributor is
 * bit-identical to a flat ascending-id fold.
 *
 * @param edge_groups Edge aggregators sharing the chunk fan-out.
 * @param fold_chunk  Contributions per partial sum (>= 1).
 */
AggregationStats fedAvg(RoundContext &ctx, std::size_t edge_groups = 1,
                        std::size_t fold_chunk = 16);

/**
 * Server-side validation run before any aggregation: updates containing
 * non-finite values (a client diverged under an aggressive configuration)
 * are rejected — marked dropped with DropReason::Diverged and counted in
 * dropped_diverged — so one bad client cannot poison the global model.
 *
 * @return Number of updates rejected this call.
 */
std::size_t rejectDivergedUpdates(RoundContext &ctx);

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_AGGREGATOR_H_
