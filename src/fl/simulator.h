/**
 * @file
 * The federated-learning simulator: FedAvg (Algorithm 1) over a fleet of
 * modeled mobile devices.
 *
 * Learning is real — every selected client runs actual SGD on its shard of
 * a synthetic dataset and the server aggregates actual weights — while
 * time and energy come from the device cost model (Eqs. 2-4), never from
 * host timing. One simulator instance owns the global model, the fleet,
 * the shared data store and the selection stream, and runs each round
 * itself: a Sync round is a staged pipeline (Select -> Train -> Encode
 * -> Cost -> Recover -> Straggler -> Aggregate -> Energy -> Evaluate,
 * fl/round/stages.cc) with a deadline drop and FedAvg, an Async or
 * Buffered round is one async::EventPump epoch, and both end in the same
 * policy feedback, counters and round observers. Seeded fault injection
 * (FlConfig::faults) is inert by default.
 */

#ifndef FEDGPO_FL_SIMULATOR_H_
#define FEDGPO_FL_SIMULATOR_H_

#include <array>
#include <memory>
#include <vector>

#include "comm/codec.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "device/network_model.h"
#include "fault/fault_model.h"
#include "fl/async/event_pump.h"
#include "fl/async/protocol.h"
#include "fleet/client.h"
#include "fl/round/observer.h"
#include "fl/types.h"
#include "fleet/client_store.h"
#include "fleet/fleet_config.h"
#include "fleet/virtual_clock.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "runtime/thread_pool.h"
#include "runtime/worker_context.h"
#include "util/rng.h"

namespace fedgpo {
namespace fl {

/** Test samples per server evaluation batch (one pool task each). */
inline constexpr std::size_t kEvalBatch = 64;

/**
 * Scenario configuration for one simulator instance.
 */
struct FlConfig
{
    models::Workload workload = models::Workload::CnnMnist;
    std::size_t n_devices = 40;       //!< fleet size (paper: 200)
    std::size_t train_samples = 1600; //!< global training pool
    std::size_t test_samples = 320;   //!< held-out evaluation set
    data::Distribution distribution = data::Distribution::IidIdeal;
    double dirichlet_alpha = 0.1;     //!< paper's non-IID concentration
    bool interference = false;        //!< co-running app variance
    bool network_unstable = false;    //!< unstable-network variance
    double deadline_factor = 3.0;     //!< straggler deadline vs median; > 0
    std::uint64_t seed = 42;
    double lr = 0.0;                  //!< finite, >= 0; 0 = workload default

    /**
     * Seeded fault injection (offline / crash / upload-failure rates,
     * retry budget, quorum gate). All rates default to 0, which keeps
     * the round pipeline bit-identical to a fault-free build.
     */
    fault::FaultConfig faults;

    /**
     * Update-codec knobs (codec level, top-k fraction, quantization
     * chunk). The Identity default keeps every round bit-identical to a
     * codec-less build. Each round takes its level from
     * ParamOptimizer::chooseCodec, which passes this one through.
     */
    comm::CommConfig comm;

    /**
     * Server protocol knobs (src/fl/async/): Sync (the default,
     * bit-identical to the historical round pipeline), Async
     * (FedAsync-style fold-on-arrival), or Buffered (FedBuff-style
     * flush every M arrivals). The event modes run each round as one
     * virtual-time epoch over the fleet clock.
     */
    async::AsyncConfig protocol;

    /**
     * Worker threads for parallel client training (0 = auto: the
     * FEDGPO_THREADS environment variable, else hardware concurrency).
     * Purely a host-speed knob: results are bit-identical for any value.
     */
    std::size_t threads = 0;

    /**
     * Fleet-scale knobs: LRU residency cap for lazily materialized
     * clients and the eager resident-fleet baseline switch. All
     * defaults are bit-identical to the pre-fleet-layer simulator.
     */
    fleet::FleetConfig fleet;
};

/**
 * FedAvg simulator.
 */
class FlSimulator
{
  public:
    explicit FlSimulator(const FlConfig &config);

    /** Scenario configuration. */
    const FlConfig &config() const { return config_; }

    /** Fleet size N. */
    std::size_t numDevices() const { return store_->size(); }

    /**
     * Device i (for observation by benches/tests). Materializes the
     * client at the current round when it is not resident; the
     * reference stays valid until the next round completes.
     */
    const fleet::Client &client(std::size_t i) const
    {
        return store_->acquire(i, round_);
    }

    /** The fleet's client store (residency introspection for benches). */
    const fleet::ClientStore &clientStore() const { return *store_; }

    /** The fleet's discrete-event clock (modeled campaign time). */
    const fleet::VirtualClock &virtualClock() const { return *clock_; }

    /** The event-driven protocol loop; null in Sync mode. */
    const async::EventPump *eventPump() const { return pump_.get(); }

    /** The shared global model (server copy). */
    nn::Model &globalModel() { return *global_model_; }

    /** Layer census of the global model. */
    const nn::LayerCensus &census() const { return census_; }

    /** Rounds executed so far. */
    int round() const { return round_; }

    /** Latest test accuracy (0 before the first evaluation). */
    double testAccuracy() const { return last_accuracy_; }

    /**
     * Register a round observer (non-owning; it must stay alive until
     * it is removed or the simulator is destroyed).
     */
    void addRoundObserver(round::RoundObserver *observer);

    /** Unregister a round observer; unknown pointers are ignored. */
    void removeRoundObserver(round::RoundObserver *observer);

    /**
     * Run one full aggregation round driven by the given policy:
     * client selection, per-device assignment, real local training,
     * cost modeling, straggler handling (the deadline drop at
     * config.deadline_factor), FedAvg, evaluation, and policy feedback.
     * In the event modes the round is one pump epoch with K in flight.
     */
    RoundResult runRound(optim::ParamOptimizer &policy);

    /**
     * runRound under optim::FixedOptimizer: one (B, E, K) for every
     * participant (grid search and the parameter-sweep benches).
     * Selection is still uniform random over the fleet.
     */
    RoundResult runRoundWithParams(const GlobalParams &params);

    /**
     * Predicted round time of a device under hypothetical parameters and
     * its *current* runtime state, from the cost model only (no training).
     * Used by the Table 5 oracle and by tests.
     */
    double predictedRoundTime(std::size_t client_id,
                              const PerDeviceParams &params) const;

    /**
     * Evaluate the global model on the held-out test set, fanned out
     * across the worker pool in evaluation batches with a
     * batch-index-ordered reduction — bit-identical to serial for any
     * thread count (same contract as the training fan-out).
     */
    nn::Model::EvalResult evaluateGlobal();

    /** Per-sample training FLOPs of the (proxy) model. */
    std::uint64_t trainFlopsPerSample() const { return train_flops_; }

    /** One-way parameter payload in (proxy) bytes. */
    std::size_t paramBytes() const { return param_bytes_; }

    /**
     * The codec instance serving one level (all three are built up
     * front from FlConfig::comm so a policy can switch level per round
     * without reallocations mid-campaign).
     */
    const comm::UpdateCodec &codecFor(comm::Codec codec) const
    {
        return *codecs_[static_cast<std::size_t>(codec)];
    }

    /** Effective worker-thread count of the execution engine. */
    std::size_t threads() const { return pool_->size(); }

  private:
    /** Select k distinct clients uniformly (FedAvg's random S_t). */
    std::vector<std::size_t> selectClients(int k);

    /** Build observations for the selected clients. */
    std::vector<DeviceObservation>
    observe(const std::vector<std::size_t> &selected) const;

    /**
     * The policy's per-device (B, E) for newly chosen clients: observe
     * each, ask the policy, and reject a non-positive B or E, or a count
     * other than one entry per id, with a fatal error.
     */
    std::vector<PerDeviceParams>
    assignParams(optim::ParamOptimizer &policy,
                 const std::vector<std::size_t> &ids);

    /**
     * Context for the round about to run: advances every device's
     * runtime state, bumps the round counter, and points the context at
     * the simulator state (selection left to the caller).
     */
    round::RoundContext makeRoundContext();

    /**
     * Append one participant's training stream to ctx.train_rngs and,
     * when the round's codec is stochastic (non-Identity), its comm
     * stream to ctx.comm_rngs; default-configured rounds touch no extra
     * randomness at all.
     */
    void addStreams(round::RoundContext &ctx, std::size_t client_id) const;

    /**
     * Replacement draw for the device found offline at `selected[slot]`:
     * pick uniformly among the not-yet-selected fleet and append it with
     * the slot's (B, E) and its own streams. Consumes rng_ only when a
     * fault fired, so the zero-fault selection stream is untouched.
     * Appends nothing once the fleet is exhausted.
     */
    void replaceOffline(round::RoundContext &ctx, std::size_t slot);

    // ---- The round pipeline (fl/round/stages.cc). ----------------------

    void stageSelect(round::RoundContext &ctx, optim::ParamOptimizer &policy);
    void stageTrain(round::RoundContext &ctx);
    void stageEncode(round::RoundContext &ctx);
    void stageCost(round::RoundContext &ctx);
    void stageRecover(round::RoundContext &ctx);
    void stageStraggler(round::RoundContext &ctx);
    void stageAggregate(round::RoundContext &ctx);
    void stageEnergy(round::RoundContext &ctx);
    void stageEvaluate(round::RoundContext &ctx);

    /**
     * Round traffic into the comm.* probes: byte and per-codec counters
     * from the result totals, plus, per uploading report, the encoded
     * count (non-Identity codecs) and the compression ratio.
     */
    void countTraffic(const round::RoundContext &ctx);

    /**
     * End a round of either protocol: policy feedback and its decision
     * record, the round's counters (rounds.*, comm.* via countTraffic,
     * one fault.<kind> per fault event), onRoundEnd, the RoundEnd trace
     * event and the per-round trace flush. Returns the result.
     */
    RoundResult closeRound(round::RoundContext &ctx,
                           optim::ParamOptimizer &policy);

    /**
     * Training stream for one client in the current round, derived as
     * split(seed, round, client_id) — a function of (seed, round, client)
     * only, never of draw order, so parallel and serial rounds consume
     * identical randomness.
     */
    util::Rng trainRng(std::size_t client_id) const;

    /**
     * Comm stream for one client in the current round — same derivation
     * discipline as trainRng (pure function of (seed, round, client))
     * under its own root constant, so codec randomness never perturbs
     * the training, selection, or fault streams.
     */
    util::Rng commRng(std::size_t client_id) const;

    FlConfig config_;
    util::Rng rng_;
    fault::FaultModel fault_model_;
    data::Dataset train_set_;
    data::Dataset test_set_;
    std::unique_ptr<nn::Model> global_model_;
    std::unique_ptr<runtime::ThreadPool> pool_;
    std::unique_ptr<runtime::WorkerContextPool> workers_;
    nn::LayerCensus census_;
    // The network model must outlive the store: the client recipe holds
    // a pointer to it for runtime-state stepping.
    device::NetworkModel network_model_;
    std::unique_ptr<fleet::ClientStore> store_;
    std::unique_ptr<fleet::VirtualClock> clock_;
    /** Event-driven protocol loop; null in Sync mode. */
    std::unique_ptr<async::EventPump> pump_;
    std::array<std::unique_ptr<comm::UpdateCodec>, comm::kNumCodecs>
        codecs_;
    std::vector<float> global_weights_;
    std::uint64_t train_flops_ = 0;
    std::size_t param_bytes_ = 0;
    double lr_ = 0.0;
    int round_ = 0;
    double last_accuracy_ = 0.0;

    std::vector<round::RoundObserver *> observers_;
    // Host-profile probes ("round.<stage>" spans, round counters),
    // resolved once at construction; all null when metrics are off.
    std::array<obs::SpanNode *, round::kStageCount> stage_spans_{};
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

} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_SIMULATOR_H_
