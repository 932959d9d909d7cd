/**
 * @file
 * The event-driven server loop behind the Async and Buffered protocol
 * modes: dispatches are individual server->client->server exchanges
 * pumped through fleet::VirtualClock completion events instead of a
 * round barrier.
 *
 * One pump "epoch" is the event-mode analog of a synchronous round —
 * the unit RoundResult, evaluation, and policy feedback are cut at. An
 * Async epoch folds K arriving updates, K being the cohort size, so one
 * epoch does one round's worth of update work; a Buffered epoch ends at
 * one buffer flush (M arrivals, or fewer when the pump is starved).
 * In-flight dispatches, scheduled events, the global model version, and
 * client unavailability windows all persist across epochs.
 *
 * The fault model is load-bearing here: per-dispatch draws
 * (FaultModel::drawDispatch) can take a client offline at dispatch,
 * churn it mid-flight (partial work, lost update, reconnect after a
 * delay), exhaust its upload retries (charged into the modeled arrival
 * time via round::chargeRetries), or deliver its update
 * twice — the second copy rejected by the per-client dispatch epoch
 * carried in the event tag. A staleness bound drops updates older than
 * `max_staleness` with per-event accounting.
 *
 * Dispatch lifecycle: each dispatch's local training is one pool task
 * (ThreadPool::submit), launched when the pump commits the dispatch and
 * joined where its update is first read — onCompletion, onChurn, or the
 * end of the epoch's event loop for every dispatch still training — so
 * replacement dispatches train on the workers while the pump keeps
 * popping events.
 * The commit fixes the modeled arrival up front: the payload is
 * payloadBytes(n) for every codec (the comm::UpdateCodec contract), so
 * cost, retry charges and the scheduled event need no trained update.
 * Commit and join run the per-dispatch step the synchronous round stages
 * run too (fl/round/dispatch.h): commit builds the round::TrainJob and
 * calls round::cost, round::chargePartialWork (churn) and
 * round::chargeRetries; the task calls round::train; the join calls
 * round::encode.
 *
 * Determinism: a task is a pure function of (dispatch-time globals,
 * shard, per-dispatch stream, (B, E)). It trains from an immutable
 * snapshot of its dispatch's model version, reads only what the pump
 * thread captured at commit, and writes only its own result slot and its
 * worker's scratch model. Everything order-sensitive — the encode
 * against the client's residual, staleness, folds, flushes — runs on the
 * pump thread in event order. Selection draws from a persistent
 * pump-owned stream, and every train/comm/fault stream is a pure
 * function of (seed, dispatch, client) under its own root constant — so
 * results are bit-identical across thread counts and ClientStore LRU
 * caps. No task outlives its epoch, the exception path included.
 */

#ifndef FEDGPO_FL_ASYNC_EVENT_PUMP_H_
#define FEDGPO_FL_ASYNC_EVENT_PUMP_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/fault_model.h"
#include "fl/async/protocol.h"
#include "fl/round/round_context.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace fedgpo {
namespace fl {
namespace async {

/**
 * Event-driven dispatch/fold loop over a RoundContext. Owned by the
 * simulator alongside the clock and store it drives; one instance
 * serves the whole campaign so in-flight state carries across epochs.
 */
class EventPump
{
  public:
    /**
     * @param config Validated protocol knobs (mode must not be Sync).
     * @param faults The simulator's fault model (dispatch-keyed draws;
     *               inert when no async rate is set). Must outlive the
     *               pump.
     * @param seed   Root simulator seed; the pump derives its selection
     *               and per-dispatch streams from it.
     */
    EventPump(const AsyncConfig &config, const fault::FaultModel &faults,
              std::uint64_t seed);

    /** Waits for every training task still running. */
    ~EventPump();

    EventPump(const EventPump &) = delete;
    EventPump &operator=(const EventPump &) = delete;

    /** The policy's per-device (B, E) for newly chosen client ids. */
    using AssignFn = std::function<std::vector<PerDeviceParams>(
        const std::vector<std::size_t> &)>;

    /**
     * Run one epoch. It stamps protocol metadata on the result and fills
     * the in-flight set up to ctx.requested_k dispatches: the new
     * dispatches get their (B, E) from one `assign` call over all newly
     * chosen clients and launch as training tasks on ctx.pool. It then
     * pumps events until the epoch's fold/flush target is met (or the
     * queue runs dry / the safety cap trips, which aborts the epoch);
     * every completed or churned dispatch is replaced by a fresh one
     * inheriting its per-device parameters, so the server keeps
     * ctx.requested_k exchanges in flight. Every in-flight dispatch is
     * joined before finishEpoch closes the epoch. Returns the epoch's
     * aggregation stats.
     */
    round::AggregationStats runEpoch(round::RoundContext &ctx,
                                     const AssignFn &assign);

    const AsyncConfig &config() const { return config_; }

    /** Dispatches issued since campaign start. */
    std::uint64_t dispatchCount() const { return dispatch_seq_; }

  private:
    /** One outstanding server->client->server exchange. */
    struct InFlight
    {
        std::uint64_t epoch = 0; //!< dispatch seq, stamped in event tags
        std::uint64_t dispatch_version = 0; //!< model version at dispatch
        std::int32_t created_round = -1; //!< epoch of creation (trace id)
        fault::AsyncFaultDraw draw;
        ClientRoundReport report; //!< cost/traffic at commit, loss at join
        std::vector<float> weights; //!< trained (decoded) update, at join
        std::size_t update_samples = 0;
        bool upload_exhausted = false;

        // ---- The training task, from commit until joined. ---------------
        std::future<void> training; //!< valid until joined
        /** The task's result slot. */
        std::unique_ptr<fleet::Client::UpdateResult> trained;
        /** Codec the join encodes with; null when nothing is uploaded. */
        const comm::UpdateCodec *codec = nullptr;
        /** Dispatch-time globals the encode diffs against (codec only). */
        std::shared_ptr<const std::vector<float>> base;
    };

    /**
     * A folded-but-unflushed update (Buffered mode); its
     * report.update_scale is the fold's clip(weight(τ), 0, 1).
     */
    struct BufferedUpdate
    {
        ClientRoundReport report;
        std::vector<float> weights;
        std::size_t samples = 0;
        std::uint64_t dispatch = 0;      //!< trace id through the flush
        std::int32_t created_round = -1; //!< trace id through the flush
    };

    /** What a duplicate rejection needs to report about dispatch one. */
    struct DuplicateInfo
    {
        device::Category category = device::Category::High;
        double dispatch_ts = -1.0;
        std::int32_t created_round = -1; //!< trace id of dispatch one
    };

    /** A freshly selected dispatch awaiting training. */
    struct PendingDispatch
    {
        std::size_t client_id = 0;
        std::uint64_t seq = 0;
        std::int32_t created_round = -1; //!< epoch at selection (trace id)
        fault::AsyncFaultDraw draw;
        PerDeviceParams params;
        util::Rng train_rng;
    };

    /**
     * Pick an available client (not in flight, not offline) from the
     * pump's persistent selection stream; false when none remains.
     */
    bool pickClient(const round::RoundContext &ctx, std::size_t &out);

    /**
     * Select + fault-draw dispatches until `fill` plus the in-flight
     * set reaches the concurrency target; the caller sets their (B, E).
     * Offline draws produce their zero-cost rejected report and
     * unavailability window inline.
     */
    void selectDispatches(round::RoundContext &ctx,
                          std::vector<PendingDispatch> &fill);

    /**
     * Acquire the client, launch its training task, then cost-model,
     * retry-charge, and schedule the dispatch, completing the InFlight
     * record selectDispatches reserved. The one launch path of the
     * epoch-start fill and top-ups.
     */
    void commitDispatch(round::RoundContext &ctx,
                        const PendingDispatch &pending);

    /** Submit the training task of a dispatch being committed. */
    void launchTraining(round::RoundContext &ctx,
                        const PendingDispatch &pending,
                        const fleet::Client &client, InFlight &record);

    /**
     * First read of a dispatch's update: wait for its task, take the
     * result, and run the deferred encode. A no-op once joined.
     */
    void join(round::RoundContext &ctx, InFlight &record);

    /** Wait, without rethrowing, for every task still running. */
    void waitForTraining() noexcept;

    /** runEpoch's event loop, up to the epoch's fold/flush target. */
    void pumpEvents(round::RoundContext &ctx);

    /**
     * Close the epoch: timestamps, energy bookkeeping (participant
     * energy at arrival, tier-idle energy over uninvolved devices, no
     * barrier-wait energy — the async win), traffic totals, and the
     * staleness summary. Returns the epoch's aggregation stats.
     */
    round::AggregationStats finishEpoch(round::RoundContext &ctx);

    /** Dispatch replacements until the concurrency target is met. */
    void topUp(round::RoundContext &ctx, const PerDeviceParams &inherit);

    /** Take a client offline until `until_ts` (Reconnect scheduled). */
    void goOffline(round::RoundContext &ctx, std::size_t client_id,
                   double until_ts);

    void onCompletion(round::RoundContext &ctx,
                      const fleet::FleetEvent &event);
    void onChurn(round::RoundContext &ctx, const fleet::FleetEvent &event);

    /** Fold one arrived update immediately (Async mode). */
    void foldAsync(round::RoundContext &ctx, InFlight &record,
                   double arrival_ts, int staleness);

    /** Flush the buffer as one sample-weighted FedAvg fold (Buffered). */
    void flushBuffer(round::RoundContext &ctx, double flush_ts);

    /** Record a fold into the epoch staleness/aggregation summary. */
    void accountFold(std::size_t samples, int staleness);

    bool epochDone() const;

    AsyncConfig config_;
    const fault::FaultModel *fault_model_;
    std::uint64_t seed_;
    util::Rng select_rng_;

    // ---- Campaign-persistent state. ------------------------------------
    std::uint64_t dispatch_seq_ = 0;
    std::uint64_t model_version_ = 0;
    std::unordered_map<std::size_t, InFlight> in_flight_;
    std::unordered_map<std::size_t, double> offline_until_;
    std::unordered_map<std::uint64_t, DuplicateInfo> dup_info_;
    std::vector<BufferedUpdate> buffer_;
    PerDeviceParams default_params_;
    /**
     * Immutable copy of the current globals that new tasks train from;
     * null until the next launch after a fold or flush.
     */
    std::shared_ptr<const std::vector<float>> globals_;
    bool warned_buffer_clamp_ = false;
    /** Fold-staleness distribution ("async.staleness"); null when off. */
    obs::Histogram *staleness_hist_ = nullptr;

    // ---- Per-epoch state. ----------------------------------------------
    std::size_t concurrency_ = 0;
    int effective_buffer_ = 1;
    std::size_t epoch_folds_ = 0;
    int epoch_flushes_ = 0;
    int epoch_arrivals_ = 0; //!< deliveries seen, for arrival_rank
    std::uint64_t epoch_events_ = 0;
    round::AggregationStats epoch_stats_;
    double staleness_sum_ = 0.0;
    std::size_t staleness_count_ = 0;
    int staleness_max_ = 0;
};

} // namespace async
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ASYNC_EVENT_PUMP_H_
