#include "fl/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "data/synthetic.h"
#include "device/cost_model.h"
#include "device/power_model.h"
#include "fl/round/dispatch.h"
#include "obs/tracing/trace.h"
#include "optim/fixed.h"
#include "runtime/runtime_config.h"
#include "tensor/gemm.h"
#include "util/logging.h"
#include "util/stats.h"

namespace fedgpo {
namespace fl {

namespace trc = obs::tracing;

namespace {

data::Dataset
makeTrainSet(models::Workload w, std::size_t n, util::Rng &rng)
{
    switch (w) {
      case models::Workload::CnnMnist:
        return data::makeSyntheticMnist(n, rng);
      case models::Workload::LstmShakespeare:
        return data::makeSyntheticShakespeare(n, rng);
      case models::Workload::MobileNetImageNet:
        return data::makeSyntheticImageNet(n, rng);
    }
    util::fatal("makeTrainSet: unknown workload");
}

} // namespace

FlSimulator::FlSimulator(const FlConfig &config)
    : config_(config), rng_(config.seed),
      fault_model_(config.faults, config.seed),
      network_model_(config.network_unstable)
{
    if (config_.n_devices == 0)
        util::fatal("FlConfig: n_devices must be positive");
    // 0 selects the workload default below, where NaN or a negative
    // rate would otherwise land silently.
    if (!(config_.lr >= 0.0 && std::isfinite(config_.lr)))
        util::fatal("FlConfig: lr must be finite and >= 0 (0 = workload "
                    "default), got " + std::to_string(config_.lr));

    // Train and test sets share the generator stream so class prototypes
    // (or the Markov chain) match between them: test measures the same
    // concept the clients train on.
    util::Rng data_rng = rng_.split(1);
    const std::size_t total = config_.train_samples + config_.test_samples;
    data::Dataset all = makeTrainSet(config_.workload, total, data_rng);

    // Split off the test set (tail samples).
    {
        std::vector<std::size_t> train_idx(config_.train_samples);
        std::vector<std::size_t> test_idx(config_.test_samples);
        for (std::size_t i = 0; i < config_.train_samples; ++i)
            train_idx[i] = i;
        for (std::size_t i = 0; i < config_.test_samples; ++i)
            test_idx[i] = config_.train_samples + i;
        tensor::Tensor feat;
        std::vector<int> labels;
        all.gather(train_idx, feat, labels);
        train_set_ = data::Dataset(std::move(feat), std::move(labels),
                                   all.numClasses());
        tensor::Tensor tfeat;
        std::vector<int> tlabels;
        all.gather(test_idx, tfeat, tlabels);
        test_set_ = data::Dataset(std::move(tfeat), std::move(tlabels),
                                  all.numClasses());
    }

    global_model_ = models::buildModel(config_.workload, config_.seed ^ 7);
    census_ = global_model_->census();
    train_flops_ = global_model_->trainFlopsPerSample();
    param_bytes_ = global_model_->paramBytes();
    global_weights_ = global_model_->saveParams();
    lr_ = config_.lr > 0.0 ? config_.lr
                           : models::defaultLearningRate(config_.workload);

    // Execution engine: a fixed-size worker pool plus one lazily built
    // scratch model per worker. Scratch init seeds are irrelevant — every
    // ClientUpdate starts by loading the global weights.
    pool_ = std::make_unique<runtime::ThreadPool>(
        runtime::resolveThreads(config_.threads));
    if (tensor::fast::enabled())
        kernel_scope_ =
            std::make_unique<runtime::KernelParallelScope>(*pool_);
    workers_ = std::make_unique<runtime::WorkerContextPool>(
        pool_->size(), [workload = config_.workload, seed = config_.seed] {
            return models::buildModel(workload, seed ^ 7);
        });

    // One codec instance per level, built from the configured knobs, so
    // the round's ParamOptimizer::chooseCodec level is a pointer lookup.
    // Construction draws no randomness.
    for (std::size_t c = 0; c < comm::kNumCodecs; ++c)
        codecs_[c] =
            comm::makeCodec(static_cast<comm::Codec>(c), config_.comm);

    // Fleet-layer validation (boundary checks mirroring the B/E/K
    // validation; K > fleet is clamped at selection time).
    fleet::validateFleetConfig(config_.fleet, config_.n_devices);
    if (!(config_.deadline_factor > 0.0))
        util::fatal("FlConfig: deadline_factor must be > 0, got " +
                    std::to_string(config_.deadline_factor));

    // Round pipeline probes: one "round.<stage>" span per stage, the
    // round counters and the comm.* traffic probes.
    for (std::size_t s = 0; s < round::kStageCount; ++s)
        stage_spans_[s] = obs::spanIf(
            obs::Level::Basic,
            std::string("round.") +
                round::stageName(static_cast<round::Stage>(s)));
    rounds_counter_ = obs::counterIf(obs::Level::Basic, "rounds.completed");
    aborts_counter_ = obs::counterIf(obs::Level::Basic, "rounds.aborted");
    bytes_up_counter_ = obs::counterIf(obs::Level::Basic, "comm.bytes_up");
    bytes_down_counter_ =
        obs::counterIf(obs::Level::Basic, "comm.bytes_down");
    encoded_counter_ =
        obs::counterIf(obs::Level::Basic, "comm.encoded_updates");
    ratio_hist_ = obs::histogramIf(obs::Level::Basic,
                                   "comm.compression_ratio",
                                   {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    for (std::size_t c = 0; c < comm::kNumCodecs; ++c)
        codec_up_counters_[c] = obs::counterIf(
            obs::Level::Basic,
            std::string("comm.bytes_up.") +
                comm::codecName(static_cast<comm::Codec>(c)));

    // Shard plan over the fleet: the same partition draws as before,
    // but only an O(samples) representation stays resident — the IID
    // deal keeps just the shuffled assignment order (any shard is a
    // strided walk over it), the Dirichlet split keeps flattened
    // shards.
    util::Rng part_rng = rng_.split(2);
    fleet::ShardPlan plan;
    if (config_.distribution == data::Distribution::IidIdeal) {
        plan = fleet::ShardPlan::strided(
            config_.n_devices,
            data::iidAssignmentOrder(train_set_.size(), part_rng));
    } else {
        plan = fleet::ShardPlan::csr(data::makePartition(
            train_set_, config_.n_devices, config_.distribution, part_rng,
            config_.dirichlet_alpha));
    }

    // Client recipe: instead of building the fleet, snapshot the parent
    // stream every `stride` clients. The eager constructor consumed
    // exactly one parent draw per client (inside split(100 + i)), so
    // replaying next() here leaves the selection stream that follows
    // bit-identical, and any client's private stream is recoverable
    // from the nearest snapshot.
    fleet::ClientRecipe recipe;
    recipe.fleet = config_.n_devices;
    recipe.interference = config_.interference;
    recipe.network = &network_model_;
    recipe.shards = std::move(plan);
    recipe.stride = 512;
    recipe.split_tag_base = 100;
    recipe.snapshots.reserve(config_.n_devices / recipe.stride + 1);
    for (std::size_t i = 0; i < config_.n_devices; ++i) {
        if (i % recipe.stride == 0)
            recipe.snapshots.push_back(rng_);
        rng_.next();
    }

    store_ = std::make_unique<fleet::ClientStore>(
        std::move(recipe), config_.fleet.lru_cap, config_.fleet.eager);
    clock_ = std::make_unique<fleet::VirtualClock>();

    // Event-driven protocol loop (Async/Buffered). Validation mirrors
    // the fleet/B/E/K boundary checks: out-of-range knobs are fatal,
    // an over-large buffer warns and clamps. Sync keeps the pump null
    // and the historical pipeline bit-identical.
    async::validateAsyncConfig(config_.protocol, config_.n_devices);
    if (config_.protocol.eventDriven())
        pump_ = std::make_unique<async::EventPump>(
            config_.protocol, fault_model_, config_.seed);
}

void
FlSimulator::addRoundObserver(round::RoundObserver *observer)
{
    assert(observer != nullptr);
    observers_.push_back(observer);
}

void
FlSimulator::removeRoundObserver(round::RoundObserver *observer)
{
    observers_.erase(
        std::remove(observers_.begin(), observers_.end(), observer),
        observers_.end());
}

std::vector<std::size_t>
FlSimulator::selectClients(int k)
{
    const int fleet = static_cast<int>(store_->size());
    if (k > fleet) {
        util::logWarn("selectClients: requested K=" + std::to_string(k) +
                      " exceeds fleet size " + std::to_string(fleet) +
                      "; clamping to the fleet");
    } else if (k < 1) {
        util::logWarn("selectClients: requested K=" + std::to_string(k) +
                      " is not positive; clamping to 1");
    }
    const int capped = std::clamp(k, 1, fleet);
    return rng_.sampleWithoutReplacement(static_cast<std::size_t>(capped),
                                         store_->size());
}

std::vector<DeviceObservation>
FlSimulator::observe(const std::vector<std::size_t> &selected) const
{
    std::vector<DeviceObservation> out;
    out.reserve(selected.size());
    for (std::size_t id : selected) {
        // Materialize on demand, advanced to the current round: the
        // observed interference/network states are bit-identical to
        // what an always-resident fleet would show.
        const fleet::Client &c = store_->acquire(id, round_);
        DeviceObservation obs;
        obs.client_id = id;
        obs.category = c.category();
        obs.interference = c.interference();
        obs.network = c.network();
        obs.data_classes = train_set_.classesPresent(c.shard());
        obs.total_classes = train_set_.numClasses();
        obs.shard_size = c.shardSize();
        out.push_back(obs);
    }
    return out;
}

double
FlSimulator::predictedRoundTime(std::size_t client_id,
                                const PerDeviceParams &params) const
{
    const fleet::Client &c = store_->acquire(client_id, round_);
    device::LocalWorkSpec work;
    work.train_flops_per_sample = train_flops_;
    work.samples = c.shardSize();
    work.batch = params.batch;
    work.epochs = params.epochs;
    work.param_bytes = param_bytes_;
    // Predictions see the configured codec's payload (Identity yields
    // exactly param_bytes, keeping the pre-codec numbers bit-identical).
    work.upload_bytes =
        codecFor(config_.comm.codec).payloadBytes(global_weights_.size());
    auto cost = device::clientRoundCost(
        device::profileFor(c.category()), device::costFor(config_.workload),
        work, c.interference(), c.network());
    return cost.t_round;
}

std::vector<PerDeviceParams>
FlSimulator::assignParams(optim::ParamOptimizer &policy,
                          const std::vector<std::size_t> &ids)
{
    std::vector<PerDeviceParams> params =
        policy.assign(observe(ids), census_);
    if (params.size() != ids.size())
        util::fatal("FlSimulator: policy " + policy.name() + " returned " +
                    std::to_string(params.size()) +
                    " parameter sets for " + std::to_string(ids.size()) +
                    " selected devices");
    for (const PerDeviceParams &p : params) {
        if (p.batch < 1 || p.epochs < 1) {
            util::fatal("FlSimulator: per-device parameters must be "
                        "positive, got B=" +
                        std::to_string(p.batch) +
                        " E=" + std::to_string(p.epochs));
        }
    }
    return params;
}

round::RoundContext
FlSimulator::makeRoundContext()
{
    ++round_;
    // Eager baseline: advance every resident device's runtime state
    // once per round, exactly like the pre-fleet-layer simulator. Lazy
    // mode (the default) advances only the clients a stage acquires —
    // each one replays the identical per-client fold on demand.
    if (config_.fleet.eager)
        store_->advanceAll(round_);

    round::RoundContext ctx;
    ctx.round = round_;
    ctx.result.round = round_;
    ctx.store = store_.get();
    ctx.clock = clock_.get();
    ctx.round_start_ts = clock_->now();
    ctx.train_set = &train_set_;
    ctx.global_weights = &global_weights_;
    ctx.global_model = global_model_.get();
    ctx.pool = pool_.get();
    ctx.workers = workers_.get();
    ctx.cost_const = &device::costFor(config_.workload);
    ctx.codec = &codecFor(config_.comm.codec);
    ctx.train_flops = train_flops_;
    ctx.param_bytes = param_bytes_;
    ctx.lr = lr_;
    return ctx;
}

void
FlSimulator::addStreams(round::RoundContext &ctx,
                        std::size_t client_id) const
{
    ctx.train_rngs.push_back(trainRng(client_id));
    if (ctx.codec->kind() != comm::Codec::Identity)
        ctx.comm_rngs.push_back(commRng(client_id));
}

void
FlSimulator::replaceOffline(round::RoundContext &ctx, std::size_t slot)
{
    // O(participants): the former dense scan listed every unselected id
    // and indexed into it; drawing the same index and walking the
    // sorted selected set to the idx-th smallest unselected id
    // reproduces that pick draw-for-draw without touching O(fleet)
    // state.
    const std::size_t fleet = store_->size();
    if (ctx.selected.size() >= fleet)
        return;
    std::vector<std::size_t> sorted(ctx.selected);
    std::sort(sorted.begin(), sorted.end());
    std::size_t id = rng_.index(fleet - sorted.size());
    for (std::size_t taken : sorted) {
        if (taken <= id)
            ++id;
        else
            break;
    }
    ctx.selected.push_back(id);
    ctx.params.push_back(ctx.params[slot]);
    addStreams(ctx, id);
}

RoundResult
FlSimulator::runRound(optim::ParamOptimizer &policy)
{
    round::RoundContext ctx = makeRoundContext();
    round::traceEvent(trc::EventKind::RoundStart, ctx.round, 0, 0,
                      ctx.round_start_ts);
    if (pump_ == nullptr) {
        using clock = std::chrono::steady_clock;
        auto timed = [&](round::Stage stage, auto &&stage_fn) {
            const auto t0 = clock::now();
            stage_fn();
            const double wall_ms =
                std::chrono::duration<double, std::milli>(clock::now() - t0)
                    .count();
            obs::addSpanMs(stage_spans_[static_cast<std::size_t>(stage)],
                           wall_ms);
            if (trc::enabled(trc::Mode::Full)) {
                trc::TraceEvent e;
                e.kind = trc::EventKind::StageSpan;
                e.round = ctx.round;
                e.aux = static_cast<std::int64_t>(stage);
                e.dur_ns = static_cast<std::uint64_t>(wall_ms * 1e6);
                trc::Tracer::instance().record(e);
            }
            for (round::RoundObserver *o : observers_)
                o->onStage(ctx, stage, wall_ms);
        };
        using round::Stage;
        timed(Stage::Select, [&] { stageSelect(ctx, policy); });
        timed(Stage::Train, [&] { stageTrain(ctx); });
        timed(Stage::Encode, [&] { stageEncode(ctx); });
        timed(Stage::Cost, [&] { stageCost(ctx); });
        timed(Stage::Recover, [&] { stageRecover(ctx); });
        timed(Stage::Straggler, [&] { stageStraggler(ctx); });
        timed(Stage::Aggregate, [&] { stageAggregate(ctx); });
        timed(Stage::Energy, [&] { stageEnergy(ctx); });
        timed(Stage::Evaluate, [&] { stageEvaluate(ctx); });
    } else {
        // Event-driven epoch: the pump owns selection (its persistent
        // stream) and has each newly chosen cohort assigned through
        // assignParams; the policy's K bounds the in-flight concurrency.
        // The codec is chosen once per epoch, up front — the event loop
        // has no single pre-dispatch observation point like the Select
        // stage, so the knob applies from this epoch's dispatches on.
        const int fleet = static_cast<int>(store_->size());
        ctx.requested_k = static_cast<std::size_t>(
            std::clamp(policy.chooseClients(fleet), 1, fleet));
        ctx.codec = &codecFor(policy.chooseCodec(config_.comm.codec));
        ctx.aggregation = pump_->runEpoch(
            ctx, [&](const std::vector<std::size_t> &ids) {
                return assignParams(policy, ids);
            });
        stageEvaluate(ctx);
    }
    RoundResult result = closeRound(ctx, policy);
    // Between-round eviction: trim residency to the LRU cap, banking
    // sticky comm residuals. References handed out during the round
    // (store->resident) are dead past this point by design.
    store_->endRound();
    last_accuracy_ = result.test_accuracy;
    return result;
}

RoundResult
FlSimulator::runRoundWithParams(const GlobalParams &params)
{
    optim::FixedOptimizer fixed(params);
    return runRound(fixed);
}

util::Rng
FlSimulator::trainRng(std::size_t client_id) const
{
    // A fresh chain Rng(seed') -> split(round) -> split(client) depends on
    // nothing consumed elsewhere; the xor constant keeps the root state
    // distinct from the selection/data/partition streams of rng_.
    util::Rng root(config_.seed ^ 0x7452414e474eULL); // "TRaNGN"
    util::Rng round_stream = root.split(static_cast<std::uint64_t>(round_));
    return round_stream.split(client_id);
}

util::Rng
FlSimulator::commRng(std::size_t client_id) const
{
    // Same chain as trainRng under a distinct root constant: the codec
    // stream is a pure function of (seed, round, client), decorrelated
    // from every other stream, and consumed only when a stochastic
    // codec actually encodes.
    util::Rng root(config_.seed ^ 0x434f4d4d434eULL); // "COMMCN"
    util::Rng round_stream = root.split(static_cast<std::uint64_t>(round_));
    return round_stream.split(client_id);
}

nn::Model::EvalResult
FlSimulator::evaluateGlobal()
{
    const std::size_t n = test_set_.size();
    const std::size_t batch = kEvalBatch;
    const std::size_t n_batches = n == 0 ? 0 : (n + batch - 1) / batch;

    // Fan evaluation batches out across the pool. Each index writes only
    // its own slot and evaluates on its worker's scratch model (loaded
    // with the current global weights, so it computes exactly what the
    // server model would); the reduction below runs in batch-index order
    // on this thread, making the result bit-identical to serial. The
    // correct counts are integers, so accuracy is exact — no lossy
    // reconstruction from per-batch ratios.
    struct BatchEval
    {
        double loss = 0.0;
        std::size_t correct = 0;
        std::size_t count = 0;
    };
    std::vector<BatchEval> partials(n_batches);
    pool_->parallelFor(n_batches, [&](std::size_t b, std::size_t worker) {
        const std::size_t start = b * batch;
        const std::size_t end = std::min(start + batch, n);
        std::vector<std::size_t> idx(end - start);
        for (std::size_t i = start; i < end; ++i)
            idx[i - start] = i;
        tensor::Tensor feat;
        std::vector<int> labels;
        test_set_.gather(idx, feat, labels);
        nn::Model &model = pool_->size() > 1
                               ? *workers_->acquire(worker).model
                               : *global_model_;
        if (pool_->size() > 1)
            model.loadParams(global_weights_);
        auto r = model.evaluate(feat, labels);
        partials[b] = BatchEval{r.loss * static_cast<double>(end - start),
                                r.correct, end - start};
    });

    nn::Model::EvalResult total;
    double loss_weighted = 0.0;
    std::size_t seen = 0;
    for (const BatchEval &p : partials) {
        loss_weighted += p.loss;
        total.correct += p.correct;
        seen += p.count;
    }
    if (seen > 0) {
        total.loss = loss_weighted / static_cast<double>(seen);
        total.accuracy = static_cast<double>(total.correct) /
                         static_cast<double>(seen);
    }
    return total;
}

} // namespace fl
} // namespace fedgpo
