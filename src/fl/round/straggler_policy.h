/**
 * @file
 * The round pipeline's straggler rule: the deadline drop of the paper's
 * baselines, which discard the updates of devices that miss it.
 */

#ifndef FEDGPO_FL_ROUND_STRAGGLER_POLICY_H_
#define FEDGPO_FL_ROUND_STRAGGLER_POLICY_H_

#include "fl/round/round_context.h"

namespace fedgpo {
namespace fl {
namespace round {

/**
 * Drop every live participant whose modeled finish time exceeds the
 * deadline, deadline_factor x the median finish time of the round's
 * live participants, and return the round's gating time: the time every
 * kept device's result is in.
 *
 * Devices already dropped by fault injection (offline, crashed, upload
 * given up) never report a finish time, so they neither set the median
 * nor gate the round. A dropped straggler gets DropReason::Straggler and
 * counts in ctx.result.dropped_straggler. It computed until the server
 * gave up on it, so its compute and comm energy are prorated by
 * deadline / t_round.
 */
double dropStragglers(RoundContext &ctx, double deadline_factor);

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_STRAGGLER_POLICY_H_
