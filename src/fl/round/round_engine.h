/**
 * @file
 * The staged round engine: Algorithm 1's server loop decomposed into an
 * explicit stage sequence over a RoundContext —
 *
 *   Select -> Train -> Encode -> Cost -> Recover -> Straggler
 *          -> Aggregate -> Energy -> Evaluate
 *
 * with every stage timed to registered RoundObservers and the finished
 * context handed to them at round end. The Straggler stage applies
 * dropStragglers and the Aggregate stage fedAvg. The
 * per-participant work of the stages is the per-dispatch step in
 * fl/round/dispatch.h, shared with the event-driven protocols'
 * async::EventPump. When the context carries a FaultModel the engine
 * additionally injects and handles per-(round, client) faults: offline
 * devices are replaced at selection, crashed clients surface as partial
 * (dropped) reports, failed uploads are retried with capped exponential
 * backoff (chargeRetries), and a quorum gate aborts the round before
 * aggregation when too few updates survive. With flat FedAvg and no
 * fault model the engine is bit-identical to the monolithic round loop
 * it replaced, asserted by tests/round_golden_test.cc.
 */

#ifndef FEDGPO_FL_ROUND_ROUND_ENGINE_H_
#define FEDGPO_FL_ROUND_ROUND_ENGINE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "comm/codec.h"
#include "fl/round/observer.h"
#include "fl/round/round_context.h"
#include "obs/metrics.h"

namespace fedgpo {
namespace fl {

namespace async {
class EventPump;
} // namespace async

namespace round {

/**
 * Server-side validation run before any aggregation: updates containing
 * non-finite values (a client diverged under an aggressive configuration)
 * are rejected — marked dropped with DropReason::Diverged and counted in
 * dropped_diverged — so one bad client cannot poison the global model.
 *
 * @return Number of updates rejected this call.
 */
std::size_t rejectDivergedUpdates(RoundContext &ctx);

/**
 * Runs rounds as a fixed stage pipeline.
 */
class RoundEngine
{
  public:
    /**
     * @param deadline_factor The straggler deadline as a multiple of
     *                        the median finish time (dropStragglers).
     * @param edge_groups     fedAvg's edge aggregators; <= 1 folds flat.
     * @param fold_chunk      fedAvg's contributions per partial sum.
     *
     * Upload retries follow the context's fault model and only act when
     * it drew faults.
     */
    explicit RoundEngine(double deadline_factor,
                         std::size_t edge_groups = 1,
                         std::size_t fold_chunk = 16);

    /** Register an observer (non-owning; must outlive the engine use). */
    void addObserver(RoundObserver *observer);

    /** Unregister an observer; unknown pointers are ignored. */
    void removeObserver(RoundObserver *observer);

    /**
     * Run one full round over the context. The context must carry all
     * simulator state pointers plus the select and evaluate hooks; the
     * result is both returned and left in ctx.result.
     */
    RoundResult run(RoundContext &ctx);

    /**
     * Run one event-driven epoch (the Async/Buffered analog of run()):
     * the pump replaces the Select..Energy stage sequence and fills the
     * same context record (reports, fault events, aggregation stats),
     * while evaluation, policy feedback, the round counters and
     * onRoundEnd stay identical — so traces, metrics, and FedGPO
     * feedback work unchanged across protocols.
     */
    RoundResult runEvents(RoundContext &ctx, async::EventPump &pump);

  private:
    void stageSelect(RoundContext &ctx);
    void stageTrain(RoundContext &ctx);
    void stageEncode(RoundContext &ctx);
    void stageCost(RoundContext &ctx);
    void stageRecover(RoundContext &ctx);
    void stageStraggler(RoundContext &ctx);
    void stageAggregate(RoundContext &ctx);
    void stageEnergy(RoundContext &ctx);
    void stageEvaluate(RoundContext &ctx);

    /**
     * Round traffic into the comm.* probes: byte and per-codec counters
     * from the result totals, plus, per uploading report, the encoded
     * count (non-Identity codecs) and the compression ratio.
     */
    void countTraffic(const RoundContext &ctx);

    /**
     * End a round of either protocol: policy feedback, the round's
     * counters (rounds.*, comm.* via countTraffic, one fault.<kind> per
     * fault event), onRoundEnd, the RoundEnd trace event and the
     * per-round trace flush. Returns the result.
     */
    RoundResult closeRound(RoundContext &ctx);

    double deadline_factor_;
    std::size_t edge_groups_;
    std::size_t fold_chunk_;
    std::vector<RoundObserver *> observers_;
    // Host-profile probes ("round.<stage>" spans, round counters),
    // resolved once at construction; all null when metrics are off.
    std::array<obs::SpanNode *, kStageCount> stage_spans_{};
    obs::Counter *rounds_counter_ = nullptr;
    obs::Counter *aborts_counter_ = nullptr;
    // comm.* probes: fleet traffic counters plus the per-client
    // compression-ratio distribution. Null when metrics are off.
    obs::Counter *bytes_up_counter_ = nullptr;
    obs::Counter *bytes_down_counter_ = nullptr;
    obs::Counter *encoded_counter_ = nullptr;
    obs::Histogram *ratio_hist_ = nullptr;
    // Per-codec upload traffic ("comm.bytes_up.<codec>"), indexed by
    // comm::Codec, for the Prometheus exposition.
    std::array<obs::Counter *, comm::kNumCodecs> codec_up_counters_{};
};

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_ROUND_ENGINE_H_
