/**
 * @file
 * Observer interface over the round pipeline. The finished RoundContext
 * is the round's one record: its result, fault events, aggregation stats
 * and decision record are what campaign runners, figure benches and
 * trace writers read, instead of each re-deriving them from a callback
 * stream.
 *
 * Events fire on the caller thread: one onStage per pipeline stage (in
 * stage order; synchronous rounds only), then onRoundEnd once the round
 * is complete, its policy feedback has run and its counters are
 * counted. Observers must not mutate the context; wall-clock timings are
 * host-side instrumentation only and never feed back into modeled
 * results.
 */

#ifndef FEDGPO_FL_ROUND_OBSERVER_H_
#define FEDGPO_FL_ROUND_OBSERVER_H_

#include <cstddef>

#include "fl/round/round_context.h"

namespace fedgpo {
namespace fl {
namespace round {

/**
 * The engine's stage sequence (Algorithm 1, decomposed).
 */
enum class Stage
{
    Select,    //!< choose K participants + per-device (B, E)
    Train,     //!< real local SGD, fanned over the worker pool
    Encode,    //!< update codec: encode/decode + traffic accounting
    Cost,      //!< analytic per-device time/energy (Eqs. 2-3)
    Recover,   //!< chargeRetries: upload retries, backoff, give-ups
    Straggler, //!< dropStragglers: deadline drops + round gating time
    Aggregate, //!< divergence rejection + quorum gate + fedAvg
    Energy,    //!< wait energy + fleet-wide bookkeeping (Eqs. 4-6)
    Evaluate,  //!< test-set accuracy/loss + train-loss summary
};

/** Number of pipeline stages. */
inline constexpr std::size_t kStageCount = 9;

/** Short stable label for a stage ("select", "train", ...). */
const char *stageName(Stage stage);

/**
 * Receiver of round-pipeline events. Both handlers default to no-ops so
 * observers override only what they consume.
 */
class RoundObserver
{
  public:
    virtual ~RoundObserver() = default;

    /**
     * One pipeline stage finished. @p wall_ms is host wall-clock time of
     * the stage in milliseconds (instrumentation only — modeled time
     * lives in RoundResult::round_time).
     */
    virtual void
    onStage(const RoundContext &ctx, Stage stage, double wall_ms)
    {
        (void)ctx;
        (void)stage;
        (void)wall_ms;
    }

    /** The round is complete; the context holds its full record. */
    virtual void
    onRoundEnd(const RoundContext &ctx)
    {
        (void)ctx;
    }
};

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_OBSERVER_H_
