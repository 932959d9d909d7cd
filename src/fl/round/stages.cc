// FlSimulator's round pipeline: the nine stages runRound times, and the
// round tail both protocol families share.

#include <algorithm>
#include <cassert>
#include <string>
#include <unordered_map>

#include "device/power_model.h"
#include "fl/round/aggregator.h"
#include "fl/round/dispatch.h"
#include "fl/round/straggler_policy.h"
#include "fl/simulator.h"
#include "obs/tracing/trace.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {

namespace trc = obs::tracing;
using namespace round;

const char *
round::stageName(Stage stage)
{
    switch (stage) {
      case Stage::Select:
        return "select";
      case Stage::Train:
        return "train";
      case Stage::Encode:
        return "encode";
      case Stage::Cost:
        return "cost";
      case Stage::Recover:
        return "recover";
      case Stage::Straggler:
        return "straggler";
      case Stage::Aggregate:
        return "aggregate";
      case Stage::Energy:
        return "energy";
      case Stage::Evaluate:
        return "evaluate";
    }
    return "unknown";
}

void
FlSimulator::countTraffic(const RoundContext &ctx)
{
    const RoundResult &result = ctx.result;
    obs::addCount(bytes_up_counter_, result.bytes_up_total);
    obs::addCount(bytes_down_counter_, result.bytes_down_total);
    obs::addCount(codec_up_counters_[static_cast<std::size_t>(result.codec)],
                  result.bytes_up_total);
    // Every upload that left a device went through the round's codec;
    // its ratio counts each retransmission against one full payload.
    const std::uint64_t full = static_cast<std::uint64_t>(ctx.param_bytes);
    std::uint64_t uploads = 0;
    for (const ClientRoundReport &p : result.participants) {
        if (p.bytes_up == 0)
            continue;
        ++uploads;
        if (ratio_hist_ != nullptr)
            ratio_hist_->add(comm::CommModel::compressionRatio(
                full + static_cast<std::uint64_t>(p.upload_retries) * full,
                p.bytes_up));
    }
    if (result.codec != comm::Codec::Identity)
        obs::addCount(encoded_counter_, uploads);
}

RoundResult
FlSimulator::closeRound(RoundContext &ctx, optim::ParamOptimizer &policy)
{
    // Policy feedback runs inside the round so the decision record it
    // publishes (state, action, Q-row, reward terms) is part of the
    // context observers read, before the trace line is cut.
    policy.feedback(ctx.result);
    ctx.decision = policy.lastDecision();

    obs::addCount(rounds_counter_);
    if (ctx.result.aborted)
        obs::addCount(aborts_counter_);
    countTraffic(ctx);
    // Fault events are rare, so the by-name registry lookup is fine here.
    for (const FaultEvent &event : ctx.fault_events)
        obs::count(std::string("fault.") + fault::faultKindName(event.kind));
    for (RoundObserver *o : observers_)
        o->onRoundEnd(ctx);
    traceEvent(trc::EventKind::RoundEnd, ctx.round, 0, 0, ctx.result.ts_end);
    trc::Tracer::instance().flush();
    return ctx.result;
}

void
FlSimulator::stageSelect(RoundContext &ctx, optim::ParamOptimizer &policy)
{
    ctx.selected = selectClients(
        policy.chooseClients(static_cast<int>(store_->size())));
    ctx.params = assignParams(policy, ctx.selected);
    // The pass-through keeps the configured codec (and, with Identity,
    // the pre-codec RNG consumption) untouched.
    ctx.codec = &codecFor(policy.chooseCodec(config_.comm.codec));
    for (std::size_t id : ctx.selected)
        addStreams(ctx, id);
    ctx.requested_k = ctx.selected.size();

    if (fault_model_.active()) {
        // Draw each participant's fault outcome (caller thread; the draw
        // is a pure function of (seed, round, client), so thread count
        // is irrelevant). An offline device never starts — the server
        // over-provisions by redrawing a replacement, which gets its own
        // draw as the loop reaches the appended slot; replacement stops
        // only when the fleet has no unselected device left.
        for (std::size_t i = 0; i < ctx.selected.size(); ++i) {
            ctx.faults.push_back(
                fault_model_.draw(ctx.round, ctx.selected[i]));
            if (!ctx.faults[i].offline)
                continue;
            ++ctx.result.dropped_offline;
            FaultEvent event;
            event.client_id = ctx.selected[i];
            event.kind = fault::FaultKind::Offline;
            ctx.fault_events.push_back(event);
            replaceOffline(ctx, i);
        }
        assert(ctx.faults.size() == ctx.selected.size());
        assert(ctx.params.size() == ctx.selected.size());
        assert(ctx.train_rngs.size() == ctx.selected.size());
    }

    // Pin the final cohort — replacements included — so every later
    // stage (the parallel Train/Encode fan-outs in particular) can use
    // the read-only resident() lookup. Acquire is idempotent; eviction
    // only ever runs between rounds (ClientStore::endRound), so the
    // references stay valid for the whole round.
    for (std::size_t id : ctx.selected)
        store_->acquire(id, ctx.round);

    if (trc::enabled()) {
        // One Select per cohort slot; an offline draw's chain ends here,
        // everyone else's model ships (Dispatch) at the round start.
        for (std::size_t i = 0; i < ctx.selected.size(); ++i) {
            const std::size_t id = ctx.selected[i];
            traceEvent(trc::EventKind::Select, ctx.round, i, id,
                       ctx.round_start_ts);
            if (!ctx.faults.empty() && ctx.faults[i].offline)
                traceEvent(trc::EventKind::Reject, ctx.round, i, id,
                           ctx.round_start_ts, trc::Reason::Offline);
            else
                traceEvent(trc::EventKind::Dispatch, ctx.round, i, id,
                           ctx.round_start_ts);
        }
    }
}

void
FlSimulator::stageTrain(RoundContext &ctx)
{
    assert(ctx.pool != nullptr && ctx.workers != nullptr);
    assert(ctx.store != nullptr && ctx.train_set != nullptr);
    assert(ctx.global_weights != nullptr);

    // Every participant trains locally (real SGD), fanned out across the
    // worker pool. Determinism: each client's training RNG was split from
    // (seed, round, client_id) before dispatch, every index writes only
    // its own updates[i] slot, and everything order-dependent (cost
    // modeling, reduction) happens in later stages in client-index order
    // on this thread — so the result is bit-identical to serial execution
    // regardless of scheduling.
    ctx.updates.resize(ctx.selected.size());
    ctx.pool->parallelFor(
        ctx.selected.size(), [&ctx](std::size_t i, std::size_t worker) {
            // Fault handling (decided pre-dispatch, so still
            // scheduling-independent): an offline device never trains;
            // a crashing device really runs SGD up to its sampled
            // completed-work fraction, so its partial report carries a
            // real loss even though the update itself is lost.
            TrainJob job;
            if (!ctx.faults.empty()) {
                if (ctx.faults[i].offline)
                    return;
                if (ctx.faults[i].crash)
                    job.work_fraction = ctx.faults[i].crash_fraction;
            }
            job.client = &ctx.store->resident(ctx.selected[i]);
            job.train_set = ctx.train_set;
            job.workers = ctx.workers;
            job.globals = ctx.global_weights;
            job.params = ctx.params[i];
            job.lr = ctx.lr;
            job.rng = ctx.train_rngs[i];
            job.trace_round = ctx.round;
            job.trace_dispatch = i;
            ctx.updates[i] = train(job, worker);
        });
}

void
FlSimulator::stageEncode(RoundContext &ctx)
{
    // Traffic accounting runs for every round: the download is always
    // the full global model, and an un-encoded upload ships param_bytes.
    // A device that never came online moves no bytes; one that crashed
    // mid-training downloaded the model but never reached the upload.
    ctx.result.codec =
        ctx.codec != nullptr ? ctx.codec->kind() : comm::Codec::Identity;
    const std::uint64_t full =
        static_cast<std::uint64_t>(ctx.param_bytes);
    const bool real_codec = ctx.result.codec != comm::Codec::Identity;
    ctx.comm.assign(ctx.selected.size(), comm::CommRecord{});
    for (std::size_t i = 0; i < ctx.selected.size(); ++i) {
        if (!ctx.faults.empty() && ctx.faults[i].offline)
            continue;
        ctx.comm[i].bytes_down = full;
        if (!ctx.faults.empty() && ctx.faults[i].crash)
            continue;
        ctx.comm[i].bytes_up =
            real_codec ? ctx.codec->payloadBytes(
                             ctx.global_weights->size())
                       : full;
    }
    if (real_codec) {
        // Encode + decode each surviving update in place: after this
        // stage updates[i].weights holds global + decode(encode(delta)),
        // so the aggregation path sees exactly what the server received.
        // The fan-out mutates only slot-private state (updates[i], the
        // client's own residual — each client appears at most once per
        // round) and draws only from the pre-split per-(round, client)
        // comm stream, so the result is bit-identical at any thread
        // count. Identity skips it: no delta math, bit-inert by
        // construction.
        assert(ctx.pool != nullptr && ctx.store != nullptr);
        assert(ctx.comm_rngs.size() == ctx.selected.size());
        ctx.pool->parallelFor(
            ctx.selected.size(), [&ctx](std::size_t i, std::size_t) {
                if (ctx.comm[i].bytes_up == 0)
                    return; // no update ever reaches the server
                encode(*ctx.codec, *ctx.global_weights,
                       ctx.updates[i].weights,
                       ctx.store->resident(ctx.selected[i]).commResidual(),
                       ctx.comm_rngs[i]);
            });
    }
    // Caller-thread emission after the fan-out keeps the order per slot.
    if (trc::enabled())
        for (std::size_t i = 0; i < ctx.comm.size(); ++i)
            if (ctx.comm[i].bytes_up > 0)
                traceEvent(trc::EventKind::Encode, ctx.round, i,
                           ctx.selected[i], ctx.round_start_ts,
                           trc::Reason::None,
                           static_cast<std::int64_t>(ctx.result.codec), 0.0,
                           ctx.comm[i].bytes_up);
}

void
FlSimulator::stageCost(RoundContext &ctx)
{
    assert(ctx.store != nullptr && ctx.cost_const != nullptr);

    // Model each participant's round cost (analytic, caller thread). An
    // upload of 0 bytes (a device that never reached it) is costed at
    // the uncompressed default; the crash branch below then charges
    // only the download anyway.
    for (std::size_t i = 0; i < ctx.selected.size(); ++i) {
        ClientRoundReport report =
            cost(ctx, ctx.store->resident(ctx.selected[i]), ctx.params[i],
                 ctx.comm[i].bytes_up, ctx.comm[i].bytes_down);
        report.train_loss = ctx.updates[i].train_loss;

        if (!ctx.faults.empty()) {
            const fault::FaultDraw &draw = ctx.faults[i];
            if (draw.offline) {
                // Never reached: no work, no traffic, no energy.
                report.cost = device::RoundCost{};
                report.dropped = true;
                report.drop_reason = DropReason::Offline;
                report.update_scale = 0.0;
            } else if (draw.crash) {
                // Crashed after the download, at crash_fraction of the
                // local work; the update is lost, but the report
                // surfaces the completed fraction via update_scale.
                const double f = draw.crash_fraction;
                chargePartialWork(report, f, DropReason::Crashed);
                ++ctx.result.dropped_crashed;
                traceEvent(trc::EventKind::Reject, ctx.round, i,
                           report.client_id, ctx.round_start_ts,
                           trc::Reason::Crashed, -1, f);
                FaultEvent event;
                event.client_id = report.client_id;
                event.kind = fault::FaultKind::Crash;
                event.fraction = f;
                ctx.fault_events.push_back(event);
            }
        }
        ctx.result.participants.push_back(std::move(report));
    }
}

void
FlSimulator::stageRecover(RoundContext &ctx)
{
    if (ctx.faults.empty())
        return;
    assert(ctx.cost_const != nullptr);
    assert(ctx.faults.size() == ctx.result.participants.size());
    // Participants sit at their cohort slot (pushed in slot order by the
    // Cost stage). Offline/crashed devices never reached the upload, and
    // a clean first attempt leaves nothing to recover. Each retry ships
    // the encoded payload, so a compressing codec shrinks its charge.
    for (std::size_t i = 0; i < ctx.result.participants.size(); ++i) {
        ClientRoundReport &p = ctx.result.participants[i];
        if (p.dropped || ctx.faults[i].upload_failures == 0)
            continue;
        const std::size_t first = ctx.fault_events.size();
        const RetryCharge charge = chargeRetries(
            fault_model_.config(), p, ctx.faults[i].upload_failures,
            ctx.comm[i].bytes_up, *ctx.cost_const, ctx.fault_events);
        ctx.result.upload_retries += static_cast<std::size_t>(charge.retries);
        for (std::size_t e = first; e < ctx.fault_events.size(); ++e) {
            const FaultEvent &event = ctx.fault_events[e];
            if (event.kind == fault::FaultKind::UploadRetry)
                traceEvent(trc::EventKind::UploadRetry, ctx.round, i,
                           p.client_id, ctx.round_start_ts,
                           trc::Reason::None, event.attempt,
                           event.backoff_s);
        }
        // An exhausted budget is journaled once, as this Reject.
        if (charge.exhausted) {
            ++ctx.result.dropped_upload;
            traceEvent(trc::EventKind::Reject, ctx.round, i, p.client_id,
                       ctx.round_start_ts, trc::Reason::UploadFailed);
        }
    }
}

void
FlSimulator::stageStraggler(RoundContext &ctx)
{
    // Discrete-event arrival annotation: schedule each would-be upload's
    // modeled completion (post-Recover, so retry time is included) and
    // drain the queue in (ts, client, seq) order to stamp arrival
    // timestamps and ranks. Runs before the deadline drop so
    // arrival_ts reflects when the update would actually land — a
    // dropped straggler's arrival is simply past the deadline. Pure
    // annotation: no modeled result reads these fields, so the
    // synchronous pipeline stays bit-identical with or without a clock.
    if (ctx.clock != nullptr) {
        for (const ClientRoundReport &p : ctx.result.participants) {
            if (p.drop_reason == DropReason::Offline ||
                p.drop_reason == DropReason::Crashed) {
                continue; // no upload ever leaves the device
            }
            ctx.clock->schedule(ctx.round_start_ts + p.cost.t_round,
                                p.client_id);
        }
        std::size_t slot_of_client = 0;
        std::unordered_map<std::size_t, std::size_t> slots;
        slots.reserve(ctx.result.participants.size());
        for (const ClientRoundReport &p : ctx.result.participants)
            slots.emplace(p.client_id, slot_of_client++);
        int rank = 0;
        while (!ctx.clock->empty()) {
            const fleet::FleetEvent event = ctx.clock->pop();
            auto it = slots.find(event.client_id);
            assert(it != slots.end());
            ClientRoundReport &p = ctx.result.participants[it->second];
            p.arrival_ts = event.ts;
            p.arrival_rank = rank++;
            traceEvent(trc::EventKind::Arrival, ctx.round, it->second,
                       event.client_id, event.ts, trc::Reason::None,
                       p.arrival_rank);
        }
    }

    ctx.result.round_time = dropStragglers(ctx, config_.deadline_factor);

    // Advance the fleet clock by the round's gating time: the next
    // round starts the instant this one's stragglers were resolved.
    ctx.result.ts_start = ctx.round_start_ts;
    ctx.result.ts_end = ctx.round_start_ts + ctx.result.round_time;
    if (ctx.clock != nullptr)
        ctx.clock->advanceTo(ctx.result.ts_end);

    // No earlier stage assigns DropReason::Straggler, so it marks
    // exactly this stage's drops.
    if (trc::enabled()) {
        for (std::size_t i = 0; i < ctx.result.participants.size(); ++i) {
            const ClientRoundReport &p = ctx.result.participants[i];
            if (p.drop_reason == DropReason::Straggler)
                traceEvent(trc::EventKind::Reject, ctx.round, i,
                           p.client_id, ctx.result.ts_end,
                           trc::Reason::Straggler);
        }
    }
}

void
FlSimulator::stageAggregate(RoundContext &ctx)
{
    rejectDivergedUpdates(ctx);

    // Quorum gate: when dropout leaves fewer kept updates than the
    // configured fraction of the requested cohort K, aggregating would
    // fold a tiny, biased sample into the global model — abort the
    // round instead. The global weights stay untouched; the energy the
    // fleet burned is still charged in the Energy stage (a real server
    // cannot refund it), and the optimizer sees the abort via
    // RoundResult::aborted.
    if (fault_model_.active() && fault_model_.config().quorum_fraction > 0.0) {
        std::size_t kept = 0;
        for (const auto &p : ctx.result.participants)
            if (!p.dropped)
                ++kept;
        const double needed =
            fault_model_.config().quorum_fraction *
            static_cast<double>(ctx.requested_k);
        if (static_cast<double>(kept) < needed) {
            ctx.result.aborted = true;
            ctx.result.samples_aggregated = 0;
            if (trc::enabled()) {
                // The surviving updates are discarded too — terminate
                // each of their chains with the round-level reason.
                for (std::size_t i = 0;
                     i < ctx.result.participants.size(); ++i) {
                    const ClientRoundReport &p =
                        ctx.result.participants[i];
                    if (!p.dropped)
                        traceEvent(trc::EventKind::Reject, ctx.round, i,
                                   p.client_id, ctx.result.ts_end,
                                   trc::Reason::Quorum);
                }
            }
            util::logWarn(
                "round " + std::to_string(ctx.round) + ": aborted — " +
                std::to_string(kept) + "/" +
                std::to_string(ctx.requested_k) +
                " updates kept, quorum needs " + std::to_string(needed));
            return;
        }
    }

    ctx.aggregation = fedAvg(ctx);
    ctx.result.samples_aggregated = ctx.aggregation.samples;
    if (trc::enabled()) {
        for (std::size_t i = 0; i < ctx.result.participants.size(); ++i) {
            const ClientRoundReport &p = ctx.result.participants[i];
            if (!p.dropped)
                traceEvent(trc::EventKind::Fold, ctx.round, i, p.client_id,
                           ctx.result.ts_end, trc::Reason::None, -1,
                           p.update_scale);
        }
    }
}

void
FlSimulator::stageEnergy(RoundContext &ctx)
{
    assert(ctx.store != nullptr);
    RoundResult &result = ctx.result;

    // Participants that finished early wait for the round's stragglers
    // with the runtime and connection held open — the redundant energy
    // adaptive per-device parameters remove (paper Fig. 5). Clients
    // dropped for divergence waited like everyone else; straggler-
    // dropped devices already disconnected at the deadline, and
    // fault-dropped ones (offline, crashed, upload given up) have no
    // live session left to hold open.
    for (auto &p : result.participants) {
        const bool waits =
            !p.dropped || p.drop_reason == DropReason::Diverged;
        if (waits && p.cost.t_round < result.round_time) {
            device::PowerModel power(device::profileFor(p.category));
            p.cost.e_wait =
                power.waitPower() * (result.round_time - p.cost.t_round);
            p.cost.e_total += p.cost.e_wait;
        }
    }

    // Fleet traffic totals (exact integer bytes; retransmissions from
    // the Recover stage are already folded into each report).
    for (const auto &p : result.participants) {
        result.bytes_up_total += p.bytes_up;
        result.bytes_down_total += p.bytes_down;
    }

    // Fleet-wide energy bookkeeping (Eqs. 4-6): the idle term adds each
    // same-tier run of idle ids through addRepeated, bit for bit one add
    // per idle device.
    for (const auto &p : result.participants)
        result.energy_participants += p.cost.e_total;
    std::vector<std::size_t> sorted_selected(ctx.selected);
    std::sort(sorted_selected.begin(), sorted_selected.end());
    result.energy_idle =
        idleEnergy(ctx.store->size(), result.round_time, sorted_selected);
    result.energy_total = result.energy_participants + result.energy_idle;
}

void
FlSimulator::stageEvaluate(RoundContext &ctx)
{
    const nn::Model::EvalResult eval = evaluateGlobal();
    ctx.result.test_accuracy = eval.accuracy;
    ctx.result.test_loss = eval.loss;

    double loss_sum = 0.0;
    std::size_t kept = 0;
    for (const auto &p : ctx.result.participants) {
        if (!p.dropped) {
            loss_sum += p.train_loss;
            ++kept;
        }
    }
    ctx.result.train_loss =
        kept > 0 ? loss_sum / static_cast<double>(kept) : 0.0;
}

} // namespace fl
} // namespace fedgpo
