/**
 * @file
 * Observer interface over the round pipeline: one typed event stream that
 * campaign runners, figure benches, and trace writers consume instead of
 * each re-deriving numbers from RoundResult after the fact.
 *
 * Events fire on the caller thread, in a fixed order per round:
 * onRoundStart, one onStage per pipeline stage (in stage order), one
 * onClientReport per participant (after Energy, when reports are final),
 * onAggregate (after the Aggregate stage), and onRoundEnd. Observers must
 * not mutate the context; wall-clock timings are host-side
 * instrumentation only and never feed back into modeled results.
 */

#ifndef FEDGPO_FL_ROUND_OBSERVER_H_
#define FEDGPO_FL_ROUND_OBSERVER_H_

#include <cstddef>

#include "fl/round/aggregator.h"
#include "fl/round/round_context.h"
#include "fl/types.h"
#include "obs/decision.h"

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
    Straggler, //!< StragglerPolicy: drops/scaling + round gating time
    Aggregate, //!< divergence rejection + quorum gate + Aggregator
    Energy,    //!< wait energy + fleet-wide bookkeeping (Eqs. 4-6)
    Evaluate,  //!< test-set accuracy/loss + train-loss summary
};

/** Number of pipeline stages. */
inline constexpr std::size_t kStageCount = 9;

/** Short stable label for a stage ("select", "train", ...). */
const char *stageName(Stage stage);

/**
 * One injected fault, reported as it is handled. Offline events fire
 * during the Select stage (before onRoundStart); Crash events during
 * the Cost stage; UploadRetry/UploadExhausted during the Recover
 * stage.
 */
struct FaultEvent
{
    std::size_t client_id = 0;
    fault::FaultKind kind = fault::FaultKind::Offline;
    int attempt = 0;       //!< 1-based failed upload attempt (uploads)
    double backoff_s = 0.0; //!< wait before the retry (UploadRetry)
    double fraction = 0.0;  //!< completed-work fraction (Crash)
};

/**
 * Receiver of round-pipeline events. All handlers default to no-ops so
 * observers override only what they consume.
 */
class RoundObserver
{
  public:
    virtual ~RoundObserver() = default;

    /** Selection is done; the round body is about to run. */
    virtual void
    onRoundStart(const RoundContext &ctx)
    {
        (void)ctx;
    }

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

    /** One participant's report is final (drops, energy, scale set). */
    virtual void
    onClientReport(const RoundContext &ctx, const ClientRoundReport &report)
    {
        (void)ctx;
        (void)report;
    }

    /** The Aggregate stage finished (not fired on an aborted round). */
    virtual void
    onAggregate(const RoundContext &ctx, const AggregationStats &stats)
    {
        (void)ctx;
        (void)stats;
    }

    /**
     * One injected fault was handled. Fires on the caller thread as
     * the owning stage processes the fault; Offline events precede
     * onRoundStart (the fleet is still being assembled).
     */
    virtual void
    onFault(const RoundContext &ctx, const FaultEvent &event)
    {
        (void)ctx;
        (void)event;
    }

    /**
     * The policy published its decision record for this round (observed
     * state, chosen action, Q-row, reward decomposition). Fires between
     * the feedback hook and onRoundEnd; only on rounds where the driving
     * policy keeps a record (plain FedAvg rounds fire no onDecision).
     */
    virtual void
    onDecision(const RoundContext &ctx, const obs::DecisionRecord &record)
    {
        (void)ctx;
        (void)record;
    }

    /** The round is complete; the result is fully populated. */
    virtual void
    onRoundEnd(const RoundResult &result)
    {
        (void)result;
    }
};

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_OBSERVER_H_
