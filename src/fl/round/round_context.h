/**
 * @file
 * The mutable state of one aggregation round as it flows through
 * FlSimulator's stage sequence (Select -> Train -> Encode -> Cost ->
 * Recover -> Straggler -> Aggregate -> Energy -> Evaluate) or through
 * one async::EventPump epoch. It is data only: the simulator calls the
 * policy and its own helpers directly.
 *
 * The context points (non-owning) into the simulator that spawned the
 * round; each stage reads and mutates only its slice of it. Unit tests
 * exercise fedAvg or dropStragglers by filling just the fields that
 * rule touches (participants, updates, global weights) and leaving the
 * rest null.
 */

#ifndef FEDGPO_FL_ROUND_ROUND_CONTEXT_H_
#define FEDGPO_FL_ROUND_ROUND_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "comm/comm_model.h"
#include "data/dataset.h"
#include "device/cost_model.h"
#include "fault/fault_model.h"
#include "fleet/client.h"
#include "fl/types.h"
#include "fleet/client_store.h"
#include "fleet/virtual_clock.h"
#include "nn/model.h"
#include "obs/decision.h"
#include "runtime/thread_pool.h"
#include "runtime/worker_context.h"
#include "util/rng.h"

namespace fedgpo {
namespace fl {
namespace round {

/**
 * One injected fault, recorded on the round context where it is handled.
 * The sync stages record Offline at selection, Crash at the Cost stage
 * and UploadRetry/UploadExhausted at the Recover stage; the event pump
 * adds Churn, Duplicate and Stale as the events arrive.
 */
struct FaultEvent
{
    std::size_t client_id = 0;
    fault::FaultKind kind = fault::FaultKind::Offline;
    int attempt = 0;       //!< 1-based failed upload attempt (uploads)
    double backoff_s = 0.0; //!< wait before the retry (UploadRetry)
    double fraction = 0.0;  //!< completed-work fraction (Crash, Churn)
};

/** What one aggregation step folded into the global model. */
struct AggregationStats
{
    std::size_t contributors = 0; //!< updates blended into the global model
    std::size_t samples = 0;      //!< their total sample mass
    std::size_t scaled = 0;       //!< contributors with update_scale < 1
};

/**
 * One round's state and, once the round ends, its record: every
 * round-level output (observers, the JSONL trace, the round counters)
 * reads the finished context.
 */
struct RoundContext
{
    /** 1-based round number (set by the simulator before the run). */
    int round = 0;

    // ---- Round inputs, filled by the Select stage. ---------------------

    std::vector<std::size_t> selected;   //!< fleet indices of participants
    std::vector<PerDeviceParams> params; //!< parallel to `selected`
    /**
     * Pre-split training streams, parallel to `selected`. Derived from
     * (seed, round, client) on the caller thread before dispatch so the
     * Train stage is scheduling-independent (see DESIGN.md, "Runtime &
     * threading model").
     */
    std::vector<util::Rng> train_rngs;

    /**
     * Pre-split comm streams for stochastic update codecs, parallel to
     * `selected` — same derivation discipline as train_rngs (a pure
     * function of (seed, round, client)), so encoding is bit-identical
     * at any thread count. Empty when the codec is Identity/null (the
     * Encode stage then touches no RNG at all).
     */
    std::vector<util::Rng> comm_rngs;

    /**
     * Per-participant fault outcomes, parallel to `selected`. Drawn by
     * the Select stage on the caller thread when a sync fault rate is
     * set; empty otherwise (the zero-overhead default).
     */
    std::vector<fault::FaultDraw> faults;

    /**
     * The cohort size the Select stage originally requested (K), before
     * offline devices and their replacements grew `selected`. The
     * quorum gate measures kept updates against this.
     */
    std::size_t requested_k = 0;

    // ---- Simulator state (non-owning). ---------------------------------

    /**
     * The fleet's client state (non-owning). The Select stage pins every
     * participant right after selection (ClientStore::acquire) so the
     * parallel Train/Encode fan-outs can use the read-only resident()
     * lookup; between-round eviction is the simulator's endRound() call.
     */
    fleet::ClientStore *store = nullptr;

    /**
     * The fleet's discrete-event clock (non-owning; null in unit
     * contexts). The Straggler stage schedules each participant's
     * modeled completion, drains the queue in (ts, client, seq) order
     * to stamp arrival_ts/arrival_rank, and advances the clock by the
     * round's gating time.
     */
    fleet::VirtualClock *clock = nullptr;

    /** Virtual-clock time this round started at (set by the simulator). */
    double round_start_ts = 0.0;

    const data::Dataset *train_set = nullptr;
    std::vector<float> *global_weights = nullptr;  //!< server weights
    nn::Model *global_model = nullptr;             //!< kept in sync
    runtime::ThreadPool *pool = nullptr;
    runtime::WorkerContextPool *workers = nullptr;
    const device::WorkloadCost *cost_const = nullptr;
    /**
     * Update codec in force this round (non-owning; null behaves as
     * Identity). Selected per round — the simulator points it at the
     * configured codec, or at the policy's pick when the optimizer
     * adapts the codec knob.
     */
    const comm::UpdateCodec *codec = nullptr;
    std::uint64_t train_flops = 0; //!< proxy-model FLOPs per sample
    std::size_t param_bytes = 0;   //!< one-way payload
    double lr = 0.0;               //!< effective learning rate

    /**
     * Decision record for this round: the policy's lastDecision() right
     * after its feedback, which runs after the Evaluate stage and still
     * inside the round, so the record lands in the same round's trace
     * line (null when the policy keeps none). Observers read it at
     * onRoundEnd.
     */
    const obs::DecisionRecord *decision = nullptr;

    // ---- Stage outputs. ------------------------------------------------

    /** Locally trained weights, parallel to `selected` (Train stage). */
    std::vector<fleet::Client::UpdateResult> updates;

    /**
     * Per-participant traffic, parallel to `selected` (Encode stage).
     * After Encode, updates[i].weights already holds the *decoded*
     * update (global weights + decode(encode(delta))), so every later
     * consumer — divergence rejection, FedAvg — operates on what the
     * server actually received.
     */
    std::vector<comm::CommRecord> comm;

    /** Faults handled this round, in handling order. */
    std::vector<FaultEvent> fault_events;

    /**
     * The round's fold: the Aggregate stage's stats, or the epoch's
     * folds and flushes. Zeros when the round aborted or folded nothing.
     */
    AggregationStats aggregation;

    /** The round's result, accumulated stage by stage. */
    RoundResult result;
};

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_ROUND_CONTEXT_H_
