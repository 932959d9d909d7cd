#include "fl/async/event_pump.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "fl/round/dispatch.h"
#include "fleet/fold.h"
#include "obs/tracing/trace.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace async {

namespace trc = obs::tracing;
using round::traceEvent;

namespace {

// Root constants of the pump's dispatch-keyed stream families. Distinct
// from the sync per-round roots ("TRaNGN"/"COMMCN"/"FAULT") so the two
// protocol families never share randomness.
constexpr std::uint64_t kTrainRoot = 0x4153594e43ULL; // "ASYNC"
constexpr std::uint64_t kCommRoot = 0x41434f4d4dULL;  // "ACOMM"
constexpr std::uint64_t kSelectRoot = 0x4153454cULL;  // "ASEL"

util::Rng
dispatchStream(std::uint64_t root, std::uint64_t seed,
               std::uint64_t dispatch_seq, std::size_t client_id)
{
    util::Rng r(seed ^ root);
    util::Rng s = r.split(dispatch_seq);
    return s.split(client_id);
}

} // namespace

EventPump::EventPump(const AsyncConfig &config,
                     const fault::FaultModel &faults, std::uint64_t seed)
    : config_(config), fault_model_(&faults), seed_(seed),
      select_rng_(seed ^ kSelectRoot)
{
    assert(config_.mode != ProtocolMode::Sync);
    staleness_hist_ = obs::histogramIf(
        obs::Level::Basic, "async.staleness",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
}

EventPump::~EventPump()
{
    // A task reads the simulator's store, dataset and worker models,
    // which the simulator destroys after the pump.
    waitForTraining();
}

bool
EventPump::pickClient(const round::RoundContext &ctx, std::size_t &out)
{
    assert(ctx.store != nullptr && ctx.clock != nullptr);
    const std::size_t fleet = ctx.store->size();
    const double now = ctx.clock->now();
    auto available = [&](std::size_t id) {
        if (in_flight_.count(id) > 0)
            return false;
        auto it = offline_until_.find(id);
        if (it != offline_until_.end()) {
            if (it->second > now)
                return false;
            offline_until_.erase(it);
        }
        return true;
    };

    // Rejection sampling over the fleet: O(1) expected when most devices
    // are available (the common case), independent of residency and
    // thread count. The bounded retry count plus the linear fallback
    // keeps the draw terminating even when almost everyone is busy.
    const std::size_t tries = std::max<std::size_t>(64, fleet);
    for (std::size_t t = 0; t < tries; ++t) {
        const std::size_t id = select_rng_.index(fleet);
        if (available(id)) {
            out = id;
            return true;
        }
    }
    const std::size_t start = select_rng_.index(fleet);
    for (std::size_t k = 0; k < fleet; ++k) {
        const std::size_t id = (start + k) % fleet;
        if (available(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

void
EventPump::goOffline(round::RoundContext &ctx, std::size_t client_id,
                     double until_ts)
{
    offline_until_[client_id] = until_ts;
    // Wake the pump when the device returns so a starved server can
    // refill even when nothing else is scheduled.
    ctx.clock->schedule(until_ts, client_id, fleet::FleetEvent::Kind::Reconnect);
}

void
EventPump::selectDispatches(round::RoundContext &ctx,
                            std::vector<PendingDispatch> &fill)
{
    // The placeholder insertion below makes each picked client count in
    // in_flight_ immediately (so pickClient cannot double-dispatch it),
    // which is also what the loop bound counts.
    const bool draws = fault_model_->config().asyncActive();
    while (in_flight_.size() < concurrency_) {
        std::size_t id = 0;
        if (!pickClient(ctx, id))
            break;
        PendingDispatch pending;
        pending.client_id = id;
        pending.seq = dispatch_seq_++;
        pending.created_round = ctx.round;
        if (draws)
            pending.draw = fault_model_->drawDispatch(pending.seq, id);
        traceEvent(trc::EventKind::Select, ctx.round, pending.seq, id,
                   ctx.clock->now());

        if (pending.draw.offline) {
            // Unreachable at dispatch: a zero-cost rejected report, a
            // bounded unavailability window, and the loop picks someone
            // else — the event-mode analog of the sync replacement path.
            const double now = ctx.clock->now();
            ClientRoundReport report;
            const fleet::Client &c = ctx.store->acquire(id, ctx.round);
            report.client_id = id;
            report.category = c.category();
            report.interference = c.interference();
            report.network = c.network();
            report.samples = c.shardSize();
            report.dropped = true;
            report.drop_reason = DropReason::Offline;
            report.update_scale = 0.0;
            report.dispatch_ts = now;
            ctx.result.participants.push_back(std::move(report));
            ++ctx.result.dropped_offline;
            traceEvent(trc::EventKind::Reject, ctx.round, pending.seq, id,
                       now, trc::Reason::Offline);
            round::FaultEvent event;
            event.client_id = id;
            event.kind = fault::FaultKind::Offline;
            ctx.fault_events.push_back(event);
            goOffline(ctx, id,
                      now + fault_model_->config().reconnect_delay_s *
                                pending.draw.reconnect_scale);
            continue;
        }

        // Mark the slot taken before training so the next pick cannot
        // double-dispatch the client; the record is completed by
        // commitDispatch.
        in_flight_[id] = InFlight{};
        fill.push_back(std::move(pending));
    }
    for (PendingDispatch &p : fill)
        p.train_rng =
            dispatchStream(kTrainRoot, seed_, p.seq, p.client_id);
}

void
EventPump::launchTraining(round::RoundContext &ctx,
                          const PendingDispatch &pending,
                          const fleet::Client &client, InFlight &record)
{
    // One immutable snapshot of the globals serves every task launched
    // until the next fold or flush replaces them.
    if (globals_ == nullptr)
        globals_ = std::make_shared<const std::vector<float>>(
            *ctx.global_weights);
    // The task reads only what is captured here on the pump thread: it
    // never looks the client up in the store, whose map the pump's
    // acquire() keeps inserting into while the task runs. A churning
    // device really trains up to its sampled completed-work fraction
    // (the sync crash precedent), so its partial report carries a real
    // loss even though the update is lost.
    round::TrainJob job;
    job.client = &client;
    job.train_set = ctx.train_set;
    job.workers = ctx.workers;
    job.globals = globals_.get();
    job.params = pending.params;
    job.lr = ctx.lr;
    job.work_fraction = pending.draw.churn ? pending.draw.churn_fraction : 1.0;
    job.rng = pending.train_rng;
    job.trace_round = pending.created_round;
    job.trace_dispatch = pending.seq;
    record.trained = std::make_unique<fleet::Client::UpdateResult>();
    // `snapshot` keeps job.globals alive until the task has run.
    record.training = ctx.pool->submit(
        [out = record.trained.get(), job,
         snapshot = globals_](std::size_t worker) mutable {
            *out = round::train(job, worker);
        });
}

void
EventPump::join(round::RoundContext &ctx, InFlight &record)
{
    if (!record.training.valid())
        return;
    record.training.get();
    fleet::Client::UpdateResult &update = *record.trained;
    record.weights = std::move(update.weights);
    record.update_samples = update.samples;
    record.report.train_loss = update.train_loss;
    record.trained.reset();
    if (record.codec == nullptr)
        return;

    // The deferred encode/decode, against the dispatch-time globals so
    // the server folds exactly what it received. It runs here on the
    // pump thread because the client's residual is sticky state; the
    // dispatch was costed and scheduled at payloadBytes(n).
    const std::size_t client_id = record.report.client_id;
    util::Rng comm_rng =
        dispatchStream(kCommRoot, seed_, record.epoch, client_id);
    round::encode(*record.codec, *record.base, record.weights,
                  ctx.store->resident(client_id).commResidual(), comm_rng);
    record.codec = nullptr;
    record.base.reset();
}

void
EventPump::waitForTraining() noexcept
{
    for (auto &kv : in_flight_)
        if (kv.second.training.valid())
            kv.second.training.wait();
}

void
EventPump::commitDispatch(round::RoundContext &ctx,
                          const PendingDispatch &pending)
{
    const double now = ctx.clock->now();
    const fleet::Client &c =
        ctx.store->acquire(pending.client_id, ctx.round);

    // Complete the slot selectDispatches reserved, in place, so the task
    // is reachable from in_flight_ from its launch on.
    InFlight &record = in_flight_.at(pending.client_id);
    record.epoch = pending.seq;
    record.dispatch_version = model_version_;
    record.created_round = pending.created_round;
    record.draw = pending.draw;
    launchTraining(ctx, pending, c, record);
    traceEvent(trc::EventKind::Dispatch, pending.created_round, pending.seq,
               pending.client_id, now, trc::Reason::None,
               static_cast<std::int64_t>(model_version_));

    // Traffic, as the sync Encode stage charges it: a churned device
    // downloads the model but never uploads. Otherwise the upload is the
    // codec's payloadBytes(n), so the modeled arrival is fixed now; the
    // encode itself waits for the trained update (join).
    const std::uint64_t full = static_cast<std::uint64_t>(ctx.param_bytes);
    std::uint64_t bytes_up = 0;
    if (!pending.draw.churn) {
        bytes_up = full;
        if (ctx.result.codec != comm::Codec::Identity) {
            bytes_up = ctx.codec->payloadBytes(globals_->size());
            record.codec = ctx.codec;
            record.base = globals_;
        }
        traceEvent(trc::EventKind::Encode, pending.created_round,
                   pending.seq, pending.client_id, now, trc::Reason::None,
                   static_cast<std::int64_t>(ctx.result.codec), 0.0,
                   bytes_up);
    }

    ClientRoundReport &report = record.report;
    report = round::cost(ctx, c, pending.params, bytes_up, full);
    report.dispatch_ts = now;

    if (pending.draw.churn) {
        // Lost between dispatch and arrival after churn_fraction of the
        // local work: the crash proration, and a Churn event instead of
        // a completion — the update never reaches the server, so a
        // duplicate delivery cannot exist either.
        round::chargePartialWork(report, pending.draw.churn_fraction,
                                 DropReason::Churned);
        ctx.clock->schedule(now + report.cost.t_round, pending.client_id,
                            fleet::FleetEvent::Kind::Churn, pending.seq);
    } else {
        // Transient upload failures delay the modeled arrival: every
        // retry's backoff + airtime lands in t_round before the
        // completion is scheduled, so a flaky uplink makes the update
        // later (and staler), exactly the coupling the staleness
        // policies then act on.
        if (pending.draw.upload_failures > 0) {
            const std::size_t first = ctx.fault_events.size();
            const round::RetryCharge charge = round::chargeRetries(
                fault_model_->config(), report, pending.draw.upload_failures,
                bytes_up, *ctx.cost_const, ctx.fault_events);
            for (std::size_t i = first; i < ctx.fault_events.size(); ++i) {
                const round::FaultEvent &e = ctx.fault_events[i];
                traceEvent(e.kind == fault::FaultKind::UploadRetry
                               ? trc::EventKind::UploadRetry
                               : trc::EventKind::UploadExhausted,
                           pending.created_round, pending.seq,
                           pending.client_id, now, trc::Reason::None,
                           e.attempt, e.backoff_s);
            }
            ctx.result.upload_retries +=
                static_cast<std::size_t>(charge.retries);
            record.upload_exhausted = charge.exhausted;
        }
        ctx.clock->schedule(now + report.cost.t_round, pending.client_id,
                            fleet::FleetEvent::Kind::Completion,
                            pending.seq);
    }
}

void
EventPump::topUp(round::RoundContext &ctx, const PerDeviceParams &inherit)
{
    while (in_flight_.size() < concurrency_) {
        std::vector<PendingDispatch> fill;
        selectDispatches(ctx, fill);
        if (fill.empty())
            return; // no available client left
        for (PendingDispatch &p : fill) {
            p.params = inherit;
            commitDispatch(ctx, p);
        }
    }
}

void
EventPump::accountFold(std::size_t samples, int staleness)
{
    ++epoch_folds_;
    ++epoch_stats_.contributors;
    epoch_stats_.samples += samples;
    staleness_sum_ += static_cast<double>(staleness);
    ++staleness_count_;
    staleness_max_ = std::max(staleness_max_, staleness);
    if (staleness_hist_ != nullptr)
        staleness_hist_->add(static_cast<double>(staleness));
}

void
EventPump::foldAsync(round::RoundContext &ctx, InFlight &record,
                     double arrival_ts, int staleness)
{
    // FedAsync server step: gw <- gw + s * (w - gw) with
    // s = clip(mix * weight(τ), 0, 1), accumulated in double and cast
    // back to float — the same numeric idiom as fedAvg's
    // partial-contribution path.
    const double s = std::clamp(
        config_.mix * stalenessWeight(config_, staleness), 0.0, 1.0);
    std::vector<float> &gw = *ctx.global_weights;
    const std::vector<float> &w = record.weights;
    assert(w.size() == gw.size());
    for (std::size_t j = 0; j < gw.size(); ++j) {
        const double acc =
            static_cast<double>(gw[j]) +
            s * (static_cast<double>(w[j]) - static_cast<double>(gw[j]));
        gw[j] = static_cast<float>(acc);
    }
    if (ctx.global_model != nullptr)
        ctx.global_model->loadParams(gw);
    ++model_version_;
    globals_.reset();

    record.report.applied_ts = arrival_ts;
    record.report.update_scale = s;
    if (s < 1.0)
        ++epoch_stats_.scaled;
    accountFold(record.update_samples, staleness);
}

void
EventPump::flushBuffer(round::RoundContext &ctx, double flush_ts)
{
    if (timeout_pending_) {
        ctx.clock->cancel(timeout_handle_);
        timeout_pending_ = false;
    }
    ++epoch_flushes_;
    traceEvent(trc::EventKind::Flush, ctx.round, 0, 0, flush_ts,
               trc::Reason::None, static_cast<std::int64_t>(buffer_.size()));

    std::size_t total = 0;
    for (const BufferedUpdate &b : buffer_)
        total += b.samples;

    if (total > 0) {
        // One sample-weighted FedAvg fold over the buffer, in arrival
        // order, each update blended toward the pre-flush globals by its
        // staleness scale — so a full buffer of fresh updates reduces
        // exactly to the synchronous FedAvg math.
        std::vector<float> &gw = *ctx.global_weights;
        std::vector<fleet::Contribution> contribs;
        contribs.reserve(buffer_.size());
        for (const BufferedUpdate &b : buffer_)
            contribs.push_back({&b.weights,
                                static_cast<double>(b.samples) /
                                    static_cast<double>(total),
                                b.report.update_scale});
        std::vector<double> acc;
        fleet::foldContributions(contribs, gw, acc);
        for (std::size_t j = 0; j < acc.size(); ++j)
            gw[j] = static_cast<float>(acc[j]);
        if (ctx.global_model != nullptr)
            ctx.global_model->loadParams(gw);
        ++model_version_;
        globals_.reset();
    }

    for (BufferedUpdate &b : buffer_) {
        b.report.applied_ts = flush_ts;
        if (b.report.update_scale < 1.0)
            ++epoch_stats_.scaled;
        accountFold(b.samples, b.report.staleness);
        traceEvent(trc::EventKind::Fold, b.created_round, b.dispatch,
                   b.report.client_id, flush_ts, trc::Reason::None,
                   b.report.staleness, b.report.update_scale);
        ctx.result.participants.push_back(std::move(b.report));
    }
    buffer_.clear();
}

void
EventPump::onCompletion(round::RoundContext &ctx,
                        const fleet::FleetEvent &event)
{
    auto it = in_flight_.find(event.client_id);
    if (it == in_flight_.end() || it->second.epoch != event.tag) {
        // No active dispatch with this epoch: a second delivery of an
        // update the server already consumed. Rejected — the dispatch
        // epoch in the event tag is exactly what makes late duplicates
        // detectable after the original record is gone.
        ClientRoundReport report;
        report.client_id = event.client_id;
        std::int32_t created_round = -1;
        auto info = dup_info_.find(event.tag);
        if (info != dup_info_.end()) {
            report.category = info->second.category;
            report.dispatch_ts = info->second.dispatch_ts;
            created_round = info->second.created_round;
            dup_info_.erase(info);
        }
        report.dropped = true;
        report.drop_reason = DropReason::Duplicate;
        report.update_scale = 0.0;
        report.arrival_ts = event.ts;
        report.arrival_rank = epoch_arrivals_++;
        ctx.result.participants.push_back(std::move(report));
        ++ctx.result.dropped_duplicate;
        // The duplicate shares its origin's trace id (event.tag IS the
        // dispatch seq), so the chain shows both deliveries.
        traceEvent(trc::EventKind::Arrival, created_round, event.tag,
                   event.client_id, event.ts);
        traceEvent(trc::EventKind::Reject, created_round, event.tag,
                   event.client_id, event.ts, trc::Reason::Duplicate);
        round::FaultEvent fe;
        fe.client_id = event.client_id;
        fe.kind = fault::FaultKind::Duplicate;
        ctx.fault_events.push_back(fe);
        return;
    }

    join(ctx, it->second);
    InFlight record = std::move(it->second);
    in_flight_.erase(it);
    const int staleness =
        static_cast<int>(model_version_ - record.dispatch_version);
    ClientRoundReport &report = record.report;
    report.arrival_ts = event.ts;
    report.arrival_rank = epoch_arrivals_++;
    traceEvent(trc::EventKind::Arrival, record.created_round,
               record.epoch, event.client_id, event.ts,
               trc::Reason::None, staleness);

    // The first delivery arms the spurious second one (same tag), which
    // then finds the record gone and is rejected above.
    if (record.draw.duplicate) {
        DuplicateInfo info;
        info.category = report.category;
        info.dispatch_ts = report.dispatch_ts;
        info.created_round = record.created_round;
        dup_info_[record.epoch] = info;
        ctx.clock->schedule(
            event.ts + record.draw.duplicate_lag * report.cost.t_round,
            event.client_id, fleet::FleetEvent::Kind::Completion,
            record.epoch);
    }

    const PerDeviceParams inherit = report.params;
    if (record.upload_exhausted) {
        // chargeRetries already marked the report dropped/UploadFailed;
        // the event timestamp is when the server gave up.
        report.staleness = staleness;
        ctx.result.participants.push_back(std::move(report));
        ++ctx.result.dropped_upload;
        traceEvent(trc::EventKind::Reject, record.created_round,
                   record.epoch, event.client_id, event.ts,
                   trc::Reason::UploadFailed, staleness);
    } else if (staleness > config_.max_staleness) {
        report.staleness = staleness;
        report.dropped = true;
        report.drop_reason = DropReason::Stale;
        report.update_scale = 0.0;
        ctx.result.participants.push_back(std::move(report));
        ++ctx.result.dropped_stale;
        traceEvent(trc::EventKind::Reject, record.created_round,
                   record.epoch, event.client_id, event.ts,
                   trc::Reason::Stale, staleness);
        round::FaultEvent fe;
        fe.client_id = event.client_id;
        fe.kind = fault::FaultKind::Stale;
        ctx.fault_events.push_back(fe);
    } else if (!round::finiteUpdate(record.weights)) {
        report.staleness = staleness;
        report.dropped = true;
        report.drop_reason = DropReason::Diverged;
        ctx.result.participants.push_back(std::move(report));
        ++ctx.result.dropped_diverged;
        traceEvent(trc::EventKind::Reject, record.created_round,
                   record.epoch, event.client_id, event.ts,
                   trc::Reason::Diverged, staleness);
        util::logWarn("epoch " + std::to_string(ctx.round) + ": client " +
                      std::to_string(event.client_id) +
                      " update diverged; rejected");
    } else if (config_.mode == ProtocolMode::Async) {
        report.staleness = staleness;
        foldAsync(ctx, record, event.ts, staleness);
        traceEvent(trc::EventKind::Fold, record.created_round,
                   record.epoch, event.client_id, event.ts,
                   trc::Reason::None, staleness,
                   record.report.update_scale);
        ctx.result.participants.push_back(std::move(record.report));
    } else {
        report.staleness = staleness;
        BufferedUpdate entry;
        entry.samples = record.update_samples;
        entry.report = std::move(record.report);
        entry.report.update_scale =
            std::clamp(stalenessWeight(config_, staleness), 0.0, 1.0);
        entry.weights = std::move(record.weights);
        entry.dispatch = record.epoch;
        entry.created_round = record.created_round;
        buffer_.push_back(std::move(entry));
        traceEvent(trc::EventKind::Buffer, record.created_round,
                   record.epoch, event.client_id, event.ts,
                   trc::Reason::None,
                   static_cast<std::int64_t>(buffer_.size()));
        if (buffer_.size() == 1 && config_.buffer_timeout_s > 0.0) {
            timeout_handle_ = ctx.clock->schedule(
                event.ts + config_.buffer_timeout_s, 0,
                fleet::FleetEvent::Kind::Timeout);
            timeout_pending_ = true;
        }
        if (static_cast<int>(buffer_.size()) >= effective_buffer_)
            flushBuffer(ctx, event.ts);
    }

    topUp(ctx, inherit);
}

void
EventPump::onChurn(round::RoundContext &ctx,
                   const fleet::FleetEvent &event)
{
    auto it = in_flight_.find(event.client_id);
    // Churn events are scheduled only for churned dispatches, which get
    // no completion (and thus no duplicate), so the record must exist.
    assert(it != in_flight_.end() && it->second.epoch == event.tag);
    if (it == in_flight_.end() || it->second.epoch != event.tag)
        return;
    // The partial report carries the loss of the work done before churn.
    join(ctx, it->second);
    InFlight record = std::move(it->second);
    in_flight_.erase(it);

    ClientRoundReport &report = record.report;
    ctx.result.participants.push_back(std::move(report));
    ++ctx.result.dropped_churn;
    traceEvent(trc::EventKind::Churn, record.created_round,
               record.epoch, event.client_id, event.ts,
               trc::Reason::Churned, -1, record.draw.churn_fraction);
    round::FaultEvent fe;
    fe.client_id = event.client_id;
    fe.kind = fault::FaultKind::Churn;
    fe.fraction = record.draw.churn_fraction;
    ctx.fault_events.push_back(fe);

    goOffline(ctx, event.client_id,
              event.ts + fault_model_->config().reconnect_delay_s *
                             record.draw.reconnect_scale);
    topUp(ctx, record.report.params);
}

bool
EventPump::epochDone() const
{
    if (config_.mode == ProtocolMode::Buffered)
        return epoch_flushes_ >= 1;
    return epoch_folds_ >= target_folds_;
}

round::AggregationStats
EventPump::runEpoch(round::RoundContext &ctx, const AssignFn &assign)
{
    assert(ctx.clock != nullptr && ctx.store != nullptr);
    assert(ctx.pool != nullptr && ctx.workers != nullptr);
    assert(ctx.global_weights != nullptr && ctx.cost_const != nullptr);

    epoch_folds_ = 0;
    epoch_flushes_ = 0;
    epoch_events_ = 0;
    epoch_arrivals_ = 0;
    epoch_stats_ = round::AggregationStats{};
    staleness_sum_ = 0.0;
    staleness_count_ = 0;
    staleness_max_ = 0;

    const std::size_t fleet = ctx.store->size();
    concurrency_ =
        std::clamp<std::size_t>(ctx.requested_k, 1, fleet);
    effective_buffer_ = config_.buffer_size;
    if (config_.mode == ProtocolMode::Buffered &&
        static_cast<std::size_t>(effective_buffer_) > concurrency_) {
        if (!warned_buffer_clamp_) {
            warned_buffer_clamp_ = true;
            util::logWarn(
                "EventPump: buffer_size M=" +
                std::to_string(config_.buffer_size) +
                " exceeds the in-flight cohort K=" +
                std::to_string(concurrency_) +
                "; clamping per epoch (a larger buffer can never fill)");
        }
        effective_buffer_ = static_cast<int>(concurrency_);
    }
    target_folds_ = config_.folds_per_epoch > 0
                        ? config_.folds_per_epoch
                        : static_cast<int>(concurrency_);

    ctx.result.protocol = config_.mode;
    ctx.result.codec =
        ctx.codec != nullptr ? ctx.codec->kind() : comm::Codec::Identity;

    // Fill the in-flight set through the same launch path as top-ups,
    // with one policy call over the new dispatches. The globals may have
    // changed since the last epoch, so the first launch takes a fresh
    // snapshot.
    globals_.reset();
    std::vector<PendingDispatch> fill;
    selectDispatches(ctx, fill);
    if (!fill.empty()) {
        std::vector<std::size_t> ids;
        ids.reserve(fill.size());
        for (const PendingDispatch &p : fill)
            ids.push_back(p.client_id);
        const std::vector<PerDeviceParams> params = assign(ids);
        assert(params.size() == fill.size());
        for (std::size_t i = 0; i < fill.size(); ++i)
            fill[i].params = params[i];
        default_params_ = fill[0].params;
    }
    try {
        for (const PendingDispatch &p : fill)
            commitDispatch(ctx, p);
        pumpEvents(ctx);
        // The last join point: no task outlives its epoch.
        for (auto &kv : in_flight_)
            join(ctx, kv.second);
    } catch (...) {
        // A failed launch or join leaves other tasks running; wait for
        // them before the exception leaves the epoch.
        waitForTraining();
        throw;
    }
    if (epoch_folds_ == 0 && epoch_flushes_ == 0)
        ctx.result.aborted = true;
    return finishEpoch(ctx);
}

void
EventPump::pumpEvents(round::RoundContext &ctx)
{
    // Runaway guard: a pathological fault regime (e.g. churn_rate 1)
    // never folds anything, so bound the host work per epoch.
    const std::uint64_t event_cap =
        1000 + 256 * static_cast<std::uint64_t>(target_folds_ +
                                                concurrency_);

    while (!epochDone()) {
        if (ctx.clock->empty()) {
            // Starved: nothing in flight and nothing scheduled. A
            // non-empty buffer still flushes (the timeout gate's
            // spirit); otherwise the epoch aborts with the global
            // weights untouched — the event-mode quorum analog.
            if (config_.mode == ProtocolMode::Buffered &&
                !buffer_.empty()) {
                flushBuffer(ctx, ctx.clock->now());
                continue;
            }
            break;
        }
        if (++epoch_events_ > event_cap) {
            util::logWarn("EventPump: event cap hit in epoch " +
                          std::to_string(ctx.round) +
                          "; aborting the epoch");
            break;
        }
        const fleet::FleetEvent event = ctx.clock->pop();
        ctx.clock->advanceTo(event.ts);
        switch (event.kind) {
          case fleet::FleetEvent::Kind::Completion:
            onCompletion(ctx, event);
            break;
          case fleet::FleetEvent::Kind::Churn:
            onChurn(ctx, event);
            break;
          case fleet::FleetEvent::Kind::Reconnect: {
            auto it = offline_until_.find(event.client_id);
            if (it != offline_until_.end() && it->second <= event.ts)
                offline_until_.erase(it);
            traceEvent(trc::EventKind::Reconnect, ctx.round, 0,
                       event.client_id, event.ts);
            topUp(ctx, default_params_);
            break;
          }
          case fleet::FleetEvent::Kind::Timeout:
            timeout_pending_ = false;
            if (config_.mode == ProtocolMode::Buffered &&
                !buffer_.empty()) {
                // Wall-clock flush below M arrivals: the quorum gate
                // generalized to the buffered protocol.
                flushBuffer(ctx, event.ts);
            }
            break;
        }
    }
}

round::AggregationStats
EventPump::finishEpoch(round::RoundContext &ctx)
{
    RoundResult &result = ctx.result;
    result.ts_start = ctx.round_start_ts;
    result.ts_end = ctx.clock->now();
    result.round_time = result.ts_end - result.ts_start;
    result.model_version = model_version_;
    result.samples_aggregated = epoch_stats_.samples;
    if (staleness_count_ > 0) {
        result.staleness_mean =
            staleness_sum_ / static_cast<double>(staleness_count_);
        result.staleness_max = staleness_max_;
    }

    // Energy and traffic: every report processed this epoch is charged
    // at its arrival (or rejection), with no barrier-wait energy — the
    // structural saving of the event-driven protocols. In-flight
    // compute is charged in the epoch its arrival lands in.
    for (const ClientRoundReport &p : result.participants) {
        result.energy_participants += p.cost.e_total;
        result.bytes_up_total += p.bytes_up;
        result.bytes_down_total += p.bytes_down;
    }

    // Tier-idle energy over devices not involved this epoch (neither
    // reported on nor currently in flight), as in the sync Energy stage.
    std::vector<std::size_t> involved;
    involved.reserve(result.participants.size() + in_flight_.size());
    for (const ClientRoundReport &p : result.participants)
        involved.push_back(p.client_id);
    for (const auto &kv : in_flight_)
        involved.push_back(kv.first);
    std::sort(involved.begin(), involved.end());
    involved.erase(std::unique(involved.begin(), involved.end()),
                   involved.end());
    result.energy_idle =
        round::idleEnergy(ctx.store->size(), result.round_time, involved);
    result.energy_total = result.energy_participants + result.energy_idle;
    return epoch_stats_;
}

} // namespace async
} // namespace fl
} // namespace fedgpo
