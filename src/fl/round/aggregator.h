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
 * The kept updates fold left to right in participant order, the order
 * the RoundGolden hexfloats pin.
 */
AggregationStats fedAvg(RoundContext &ctx);

/**
 * Server-side validation run before any aggregation: updates containing
 * non-finite values (a client diverged under an aggressive configuration)
 * are rejected — marked dropped with DropReason::Diverged and counted in
 * dropped_diverged — so one bad client cannot poison the global model.
 *
 * The kept updates are scanned on ctx.pool when it is set (one flag per
 * slot); the marking, counts, Reject trace events and warnings then
 * follow in slot order on the caller, so they never depend on the pool.
 *
 * @return Number of updates rejected this call.
 */
std::size_t rejectDivergedUpdates(RoundContext &ctx);

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_AGGREGATOR_H_
