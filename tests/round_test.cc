/**
 * @file
 * Unit tests of the round pipeline's pieces: the deadline drop, FedAvg,
 * divergence rejection, the fleet idle-energy walk, the observer event
 * stream, and the JSONL trace writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "device/device_profile.h"
#include "device/power_model.h"
#include "fl/round/aggregator.h"
#include "fl/round/dispatch.h"
#include "nn/dense.h"
#include "obs/tracing/trace.h"
#include "runtime/thread_pool.h"
#include "util/logging.h"
#include "util/rng.h"
#include "fl/round/straggler_policy.h"
#include "fl/round/trace_writer.h"
#include "fl/simulator.h"

using namespace fedgpo;
using namespace fedgpo::fl;
using namespace fedgpo::fl::round;

namespace {

/**
 * A context holding only what the deadline drop touches: one report per
 * participant with a modeled cost. Energy splits 60/40 comp/comm so
 * proration is visible on both components.
 */
RoundContext
contextWithRoundTimes(const std::vector<double> &times)
{
    RoundContext ctx;
    for (std::size_t i = 0; i < times.size(); ++i) {
        ClientRoundReport p;
        p.client_id = i;
        p.cost.t_round = times[i];
        p.cost.e_comp = 6.0 * times[i];
        p.cost.e_comm = 4.0 * times[i];
        p.cost.e_total = p.cost.e_comp + p.cost.e_comm;
        ctx.result.participants.push_back(p);
    }
    return ctx;
}

/**
 * A context holding what FedAvg touches: per-client single-coordinate
 * updates with sample counts, plus the global weights.
 */
RoundContext
contextWithUpdates(const std::vector<float> &values,
                   const std::vector<std::size_t> &samples,
                   std::vector<float> &global_weights)
{
    RoundContext ctx;
    ctx.global_weights = &global_weights;
    for (std::size_t i = 0; i < values.size(); ++i) {
        ClientRoundReport p;
        p.client_id = i;
        p.samples = samples[i];
        ctx.result.participants.push_back(p);
        fleet::Client::UpdateResult u;
        u.weights = {values[i]};
        u.samples = samples[i];
        ctx.updates.push_back(std::move(u));
    }
    return ctx;
}

FlConfig
tinyConfig()
{
    FlConfig config;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;
    config.network_unstable = true;
    config.threads = 1;
    return config;
}

} // namespace

// --- Deadline drop. -----------------------------------------------------

TEST(DeadlineDrop, DropsBeyondDeadlineWithProratedEnergy)
{
    // Median of {1, 1, 10} is 1, so factor 2 puts the deadline at 2.0:
    // the slow client is cut off after completing 2/10 of its work.
    RoundContext ctx = contextWithRoundTimes({1.0, 1.0, 10.0});
    const double round_time = dropStragglers(ctx, 2.0);

    EXPECT_DOUBLE_EQ(round_time, 2.0);
    EXPECT_EQ(ctx.result.dropped_straggler, 1u);
    EXPECT_EQ(ctx.result.dropped_diverged, 0u);
    EXPECT_FALSE(ctx.result.participants[0].dropped);
    EXPECT_FALSE(ctx.result.participants[1].dropped);

    const ClientRoundReport &slow = ctx.result.participants[2];
    EXPECT_TRUE(slow.dropped);
    EXPECT_EQ(slow.drop_reason, DropReason::Straggler);
    EXPECT_DOUBLE_EQ(slow.update_scale, 1.0); // dropped, never scaled
    // Energy prorated by 0.2: e_comp 60 -> 12, e_comm 40 -> 8.
    EXPECT_DOUBLE_EQ(slow.cost.e_comp, 12.0);
    EXPECT_DOUBLE_EQ(slow.cost.e_comm, 8.0);
    EXPECT_DOUBLE_EQ(slow.cost.e_total, 20.0);
}

TEST(DeadlineDrop, FastRoundGatedBySlowestKeptClient)
{
    RoundContext ctx = contextWithRoundTimes({1.0, 1.5, 1.8});
    // Deadline 4.5, nobody dropped.
    EXPECT_DOUBLE_EQ(dropStragglers(ctx, 3.0), 1.8);
    EXPECT_EQ(ctx.result.dropped_straggler, 0u);
}

// --- FedAvg. ------------------------------------------------------------

TEST(FedAvg, SampleWeightedAverage)
{
    std::vector<float> gw = {0.0f};
    RoundContext ctx = contextWithUpdates({2.0f, 4.0f}, {1, 3}, gw);
    const AggregationStats stats = fedAvg(ctx);

    EXPECT_EQ(stats.contributors, 2u);
    EXPECT_EQ(stats.samples, 4u);
    EXPECT_EQ(stats.scaled, 0u);
    // (1*2 + 3*4) / 4 = 3.5
    EXPECT_FLOAT_EQ(gw[0], 3.5f);
}

TEST(FedAvg, ScaledUpdateBlendsTowardPreviousGlobals)
{
    std::vector<float> gw = {1.0f};
    RoundContext ctx = contextWithUpdates({2.0f, 2.0f}, {1, 1}, gw);
    ctx.result.participants[1].update_scale = 0.5;
    const AggregationStats stats = fedAvg(ctx);

    EXPECT_EQ(stats.scaled, 1u);
    // Client 0 contributes 2; client 1 contributes 1 + 0.5*(2-1) = 1.5;
    // equal samples -> (2 + 1.5) / 2 = 1.75.
    EXPECT_FLOAT_EQ(gw[0], 1.75f);
}

TEST(FedAvg, AllDroppedLeavesGlobalsUntouched)
{
    std::vector<float> gw = {7.0f};
    RoundContext ctx = contextWithUpdates({2.0f}, {4}, gw);
    ctx.result.participants[0].dropped = true;
    const AggregationStats stats = fedAvg(ctx);
    EXPECT_EQ(stats.contributors, 0u);
    EXPECT_FLOAT_EQ(gw[0], 7.0f);
}

// --- Divergence rejection. ----------------------------------------------
//
// Each case runs with ctx.pool null (the serial scan) and on a 4-worker
// pool: the verdicts are per slot, so both must agree everywhere.

namespace {

/** Run `check` once with no pool and once on a 4-worker pool. */
template <typename Check>
void
withAndWithoutPool(Check check)
{
    runtime::ThreadPool pool(4);
    for (runtime::ThreadPool *p : {static_cast<runtime::ThreadPool *>(nullptr),
                                   &pool}) {
        SCOPED_TRACE(p == nullptr ? "no pool" : "4-worker pool");
        check(p);
    }
}

} // namespace

TEST(RejectDivergedUpdates, NonFiniteUpdateExcludedFromAggregation)
{
    withAndWithoutPool([](runtime::ThreadPool *pool) {
        std::vector<float> gw = {0.0f};
        RoundContext ctx = contextWithUpdates({2.0f, 0.0f}, {1, 1}, gw);
        ctx.pool = pool;
        ctx.updates[1].weights[0] = std::numeric_limits<float>::quiet_NaN();

        EXPECT_EQ(rejectDivergedUpdates(ctx), 1u);
        EXPECT_TRUE(ctx.result.participants[1].dropped);
        EXPECT_EQ(ctx.result.participants[1].drop_reason,
                  DropReason::Diverged);
        EXPECT_EQ(ctx.result.dropped_diverged, 1u);
        EXPECT_EQ(ctx.result.dropped_straggler, 0u);

        const AggregationStats stats = fedAvg(ctx);
        EXPECT_EQ(stats.contributors, 1u);
        EXPECT_FLOAT_EQ(gw[0], 2.0f) << "only the finite update contributes";
        EXPECT_TRUE(std::isfinite(gw[0]));
    });
}

TEST(RejectDivergedUpdates, InfActivationGradientFlaggedNotMasked)
{
    // Regression for the kernel-layer zero-skip: a client whose backward
    // pass hits 0 * Inf (zero activation against an Inf upstream gradient)
    // must produce a NaN weight gradient — the old GEMMs skipped zero
    // multiplicands, so the gradient stayed finite and the diverged update
    // sailed through aggregation unflagged.
    util::Rng lrng(5);
    nn::Dense layer(2, 2, lrng);
    layer.zeroGrad();
    tensor::Tensor x({1, 2}, 0.0f);
    layer.forward(x, true);
    tensor::Tensor dy({1, 2}, std::numeric_limits<float>::infinity());
    layer.backward(dy);
    const tensor::Tensor &dw = *layer.grads()[0];
    ASSERT_TRUE(std::isnan(dw[0]))
        << "0 * Inf in dW was masked by a kernel zero-skip: " << dw[0];

    // An update carrying that gradient is caught by divergence rejection.
    withAndWithoutPool([&](runtime::ThreadPool *pool) {
        std::vector<float> gw = {0.0f};
        RoundContext ctx = contextWithUpdates({2.0f, dw[0]}, {1, 1}, gw);
        ctx.pool = pool;
        EXPECT_EQ(rejectDivergedUpdates(ctx), 1u);
        EXPECT_TRUE(ctx.result.participants[1].dropped);
        EXPECT_EQ(ctx.result.participants[1].drop_reason,
                  DropReason::Diverged);
    });
}

TEST(RejectDivergedUpdates, AlreadyDroppedClientsNotRecounted)
{
    withAndWithoutPool([](runtime::ThreadPool *pool) {
        std::vector<float> gw = {0.0f};
        RoundContext ctx = contextWithUpdates({2.0f}, {1}, gw);
        ctx.pool = pool;
        ctx.updates[0].weights[0] = std::numeric_limits<float>::infinity();
        ctx.result.participants[0].dropped = true;
        ctx.result.participants[0].drop_reason = DropReason::Straggler;
        ctx.result.dropped_straggler = 1;

        EXPECT_EQ(rejectDivergedUpdates(ctx), 0u);
        EXPECT_EQ(ctx.result.dropped_diverged, 0u);
        EXPECT_EQ(ctx.result.participants[0].drop_reason,
                  DropReason::Straggler);
    });
}

TEST(RejectDivergedUpdates, PooledScanRejectsInSlotOrder)
{
    namespace trc = obs::tracing;
    trc::ScopedMode full(trc::Mode::Full);
    trc::Tracer &tracer = trc::Tracer::instance();
    withAndWithoutPool([&](runtime::ThreadPool *pool) {
        const float kNaN = std::numeric_limits<float>::quiet_NaN();
        const float kInf = std::numeric_limits<float>::infinity();
        // 40 slots whose client ids run backwards, so slot order and id
        // order differ. NaN/Inf sit in seven slots; slot 30 was already
        // dropped as a straggler and stays uncounted.
        std::vector<float> values(40, 1.0f);
        std::vector<std::size_t> samples(40, 2);
        std::vector<float> gw = {0.0f};
        RoundContext ctx = contextWithUpdates(values, samples, gw);
        ctx.pool = pool;
        ctx.round = 3;
        for (std::size_t i = 0; i < 40; ++i)
            ctx.result.participants[i].client_id = 100 - i;
        const std::pair<std::size_t, float> planted[] = {
            {1, kNaN}, {6, kInf}, {7, -kInf}, {19, kNaN},
            {23, kInf}, {30, kNaN}, {38, -kInf}};
        for (const auto &[slot, v] : planted)
            ctx.updates[slot].weights[0] = v;
        ctx.result.participants[30].dropped = true;
        ctx.result.participants[30].drop_reason = DropReason::Straggler;

        tracer.reset();
        EXPECT_EQ(rejectDivergedUpdates(ctx), 6u);
        EXPECT_EQ(ctx.result.dropped_diverged, 6u);
        std::vector<std::size_t> dropped;
        for (std::size_t i = 0; i < 40; ++i)
            if (ctx.result.participants[i].dropped)
                dropped.push_back(i);
        EXPECT_EQ(dropped, (std::vector<std::size_t>{1, 6, 7, 19, 23, 30,
                                                      38}));
        EXPECT_EQ(ctx.result.participants[30].drop_reason,
                  DropReason::Straggler);

        std::vector<trc::TraceEvent> events;
        tracer.drain(events);
        std::vector<std::uint64_t> slots;
        for (const trc::TraceEvent &e : events) {
            EXPECT_EQ(e.kind, trc::EventKind::Reject);
            EXPECT_EQ(e.reason, trc::Reason::Diverged);
            EXPECT_EQ(e.round, 3);
            EXPECT_EQ(e.client, 100 - e.dispatch);
            slots.push_back(e.dispatch);
        }
        EXPECT_EQ(slots, (std::vector<std::uint64_t>{1, 6, 7, 19, 23, 38}));
    });
}

// --- Idle energy. --------------------------------------------------------

namespace {

/** The n dependent adds addRepeated must reproduce. */
double
addSequential(double acc, double c, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        acc += c;
    return acc;
}

/**
 * The per-device walk idleEnergy ran before its runs went through
 * addRepeated: one add of the device's tier term per idle id, ascending.
 */
double
idleEnergyPerDevice(std::size_t fleet, double round_time,
                    const std::vector<std::size_t> &sorted_ids)
{
    double idle_by_tier[device::kNumCategories];
    for (std::size_t c = 0; c < device::kNumCategories; ++c) {
        device::PowerModel power(
            device::profileFor(static_cast<device::Category>(c)));
        idle_by_tier[c] = power.idleEnergy(round_time);
    }
    const auto tiers = device::tierBoundaries(fleet);
    double energy = 0.0;
    std::size_t next = 0;
    std::size_t tier = 0;
    for (std::size_t id = 0; id < fleet; ++id) {
        while (tier + 1 < device::kNumCategories && id >= tiers[tier + 1])
            ++tier;
        if (next < sorted_ids.size() && sorted_ids[next] == id) {
            ++next;
            continue;
        }
        energy += idle_by_tier[tier];
    }
    return energy;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** A value with a random mantissa and binary exponent in [lo, hi]. */
double
randomBinade(util::Rng &rng, int lo, int hi)
{
    return std::ldexp(rng.uniform(1.0, 2.0), rng.uniformInt(lo, hi));
}

/** The ulp of a normal v. */
double
ulpOf(double v)
{
    return std::ldexp(1.0, std::ilogb(v) - 52);
}

} // namespace

TEST(IdleEnergy, AddRepeatedMatchesSequentialAdds)
{
    constexpr double kMin = std::numeric_limits<double>::denorm_min();
    constexpr double kMax = std::numeric_limits<double>::max();
    struct Case
    {
        double acc, c;
        std::uint64_t n;
    };
    std::vector<Case> cases = {
        {0.0, kMin, 2'000'000},              // subnormal steps from zero
        {0x1p-1022 - 5 * kMin, 3 * kMin, 9}, // into the 2^-1021 binade: a tie
        {0.75 * kMax, 0.125 * kMax, 10},     // overflows to +Inf
        {1.0, std::numeric_limits<double>::infinity(), 5},
        {1.0, 0x1p-53, 1'000'000},           // half an ulp: ties to even
        {1.0 + 0x1p-52, 0x1p-53, 1'000'000}, // odd start, then even
    };

    util::Rng rng(2024);
    constexpr int kRandomCases = 20'000;
    for (int i = 0; i < kRandomCases; ++i) {
        // n is log-uniform up to 2^16; every 200th case runs up to 2M.
        const std::uint64_t n =
            i % 200 == 0
                ? 1 + rng.index(2'000'000)
                : 1 + (rng.next() >> (64 - rng.uniformInt(1, 16)));
        const double acc = randomBinade(rng, -30, 30);
        switch (i % 8) {
          case 0:
          case 1:
          case 2:
          case 3: {
            // Tie-prone: c = (m + 1/2) ulps of acc's binade or one of the
            // next two, with small and large m.
            const double m = i % 2 == 0
                                 ? static_cast<double>(rng.uniformInt(0, 16))
                                 : static_cast<double>(rng.next() >> 20);
            const double ulp = std::ldexp(ulpOf(acc), rng.uniformInt(0, 2));
            cases.push_back({acc, (m + 0.5) * ulp, n});
            break;
          }
          case 4:
            cases.push_back({0.0, randomBinade(rng, -40, 40), n});
            break;
          case 5: // below half an ulp: the sum never moves
            cases.push_back({acc, rng.uniform(0.0, 0.5) * ulpOf(acc), n});
            break;
          case 6:
            cases.push_back({acc, 0.0, n});
            break;
          default: // c a few binades below acc: n adds cross several
            cases.push_back(
                {acc, std::ldexp(acc, -rng.uniformInt(0, 12)) *
                          rng.uniform(0.5, 1.0),
                 n});
            break;
        }
    }

    std::size_t mismatches = 0;
    for (const Case &k : cases) {
        const double want = addSequential(k.acc, k.c, k.n);
        const double got = addRepeated(k.acc, k.c, k.n);
        if (bits(got) != bits(want) && ++mismatches <= 5)
            ADD_FAILURE() << std::hexfloat << "acc " << k.acc << " c "
                          << k.c << " n " << std::dec << k.n << ": got "
                          << std::hexfloat << got << ", want " << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases.size() << " cases";
}

TEST(IdleEnergy, MatchesPerDeviceWalk)
{
    util::Rng rng(7);
    for (int t = 0; t < 48; ++t) {
        const std::size_t fleet =
            t == 0 ? 2'000'000
                   : 1 + (rng.next() >> (64 - rng.uniformInt(1, 20)));
        const double round_time = randomBinade(rng, -6, 8);
        const auto tiers = device::tierBoundaries(fleet);
        std::vector<std::size_t> ids = {0, fleet - 1};
        for (std::size_t t_begin : {tiers[1], tiers[2]}) {
            if (t_begin < fleet)
                ids.push_back(t_begin);
            if (t_begin > 0)
                ids.push_back(t_begin - 1);
        }
        const std::size_t k = rng.index(std::min<std::size_t>(fleet, 300) + 1);
        for (std::size_t i = 0; i < k; ++i)
            ids.push_back(rng.index(fleet));
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        if (t % 6 == 5)
            ids.clear(); // no cohort: every device idle
        EXPECT_EQ(bits(idleEnergy(fleet, round_time, ids)),
                  bits(idleEnergyPerDevice(fleet, round_time, ids)))
            << "fleet " << fleet << ", round_time " << std::hexfloat
            << round_time << ", " << std::dec << ids.size() << " cohort ids";
    }
}

TEST(IdleEnergy, FatalUnlessIdsStrictlyAscendingAndInTheFleet)
{
    EXPECT_NO_THROW(idleEnergy(10, 1.0, {0, 3, 9}));
    // A duplicate used to stall the walk, charging every later cohort
    // member as idle.
    EXPECT_THROW(idleEnergy(10, 1.0, {3, 3, 5}), util::FatalError);
    EXPECT_THROW(idleEnergy(10, 1.0, {5, 3}), util::FatalError);
    EXPECT_THROW(idleEnergy(10, 1.0, {2, 10}), util::FatalError);
}

// --- Observer event stream. ---------------------------------------------

namespace {

struct CountingObserver : RoundObserver
{
    int ends = 0;
    std::size_t client_reports = 0;
    std::size_t contributors = 0;
    std::vector<Stage> stages;

    void
    onStage(const RoundContext &, Stage stage, double wall_ms) override
    {
        EXPECT_GE(wall_ms, 0.0);
        stages.push_back(stage);
    }
    void
    onRoundEnd(const RoundContext &ctx) override
    {
        ++ends;
        client_reports += ctx.result.participants.size();
        contributors += ctx.aggregation.contributors;
        EXPECT_GT(ctx.result.participants.size(), 0u);
    }
};

} // namespace

TEST(RoundObserverStream, FullStageSequencePerRound)
{
    FlSimulator sim(tinyConfig());
    CountingObserver observer;
    sim.addRoundObserver(&observer);
    RoundResult r = sim.runRoundWithParams(GlobalParams{4, 1, 6});

    EXPECT_EQ(observer.ends, 1);
    EXPECT_EQ(observer.client_reports, r.participants.size());
    // The round-end context carries the Aggregate stage's stats: every
    // kept update contributed.
    EXPECT_EQ(observer.contributors,
              r.participants.size() - r.droppedCount());
    ASSERT_EQ(observer.stages.size(), kStageCount);
    const Stage expected[] = {Stage::Select,    Stage::Train,
                              Stage::Encode,    Stage::Cost,
                              Stage::Recover,   Stage::Straggler,
                              Stage::Aggregate, Stage::Energy,
                              Stage::Evaluate};
    for (std::size_t i = 0; i < kStageCount; ++i)
        EXPECT_EQ(observer.stages[i], expected[i]) << "stage " << i;

    // Unregistered observers see nothing further.
    sim.removeRoundObserver(&observer);
    sim.runRoundWithParams(GlobalParams{4, 1, 6});
    EXPECT_EQ(observer.ends, 1);
}

TEST(RoundObserverStream, StageNamesStable)
{
    EXPECT_STREQ(stageName(Stage::Select), "select");
    EXPECT_STREQ(stageName(Stage::Train), "train");
    EXPECT_STREQ(stageName(Stage::Recover), "recover");
    EXPECT_STREQ(stageName(Stage::Evaluate), "evaluate");
    EXPECT_STREQ(dropReasonName(DropReason::None), "none");
    EXPECT_STREQ(dropReasonName(DropReason::Straggler), "straggler");
    EXPECT_STREQ(dropReasonName(DropReason::Diverged), "diverged");
    EXPECT_STREQ(dropReasonName(DropReason::Offline), "offline");
    EXPECT_STREQ(dropReasonName(DropReason::Crashed), "crashed");
    EXPECT_STREQ(dropReasonName(DropReason::UploadFailed), "upload_failed");
}

// --- JSONL trace writer. ------------------------------------------------

TEST(JsonlTraceWriter, OneRecordPerRoundWithStageAndClientFields)
{
    const std::string path = "round_trace_test.jsonl";
    {
        FlSimulator sim(tinyConfig());
        JsonlTraceWriter trace(path);
        ASSERT_TRUE(trace.ok());
        sim.addRoundObserver(&trace);
        sim.runRoundWithParams(GlobalParams{4, 1, 6});
        sim.runRoundWithParams(GlobalParams{4, 1, 6});
        sim.removeRoundObserver(&trace);
        EXPECT_EQ(trace.roundsWritten(), 2u);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"round\":" + std::to_string(lines)),
                  std::string::npos);
        EXPECT_NE(line.find("\"stages_ms\""), std::string::npos);
        EXPECT_NE(line.find("\"select\""), std::string::npos);
        EXPECT_NE(line.find("\"aggregation\""), std::string::npos);
        EXPECT_NE(line.find("\"clients\""), std::string::npos);
        EXPECT_NE(line.find("\"dropped_straggler\""), std::string::npos);
        EXPECT_NE(line.find("\"dropped_diverged\""), std::string::npos);
        EXPECT_NE(line.find("\"update_scale\""), std::string::npos);
        // Fault fields are present (and inert) with faults off.
        EXPECT_NE(line.find("\"aborted\":false"), std::string::npos);
        EXPECT_NE(line.find("\"faults\":[]"), std::string::npos);
        EXPECT_NE(line.find("\"upload_retries\":0"), std::string::npos);
    }
    EXPECT_EQ(lines, 2u);
    std::remove(path.c_str());
}

TEST(JsonlTraceWriter, OpenRoundTraceCreatesTheDirectoryAndMapsTheStem)
{
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() / "fedgpo_open_round_trace";
    const std::filesystem::path dir = root / "nested";
    std::filesystem::remove_all(root);
    {
        FlSimulator sim(tinyConfig());
        auto trace =
            openRoundTrace(dir.string(), "cnn_iid/Fixed (4, 1, 6)");
        ASSERT_NE(trace, nullptr);
        sim.addRoundObserver(trace.get());
        for (int r = 0; r < 3; ++r)
            sim.runRoundWithParams(GlobalParams{4, 1, 6});
        sim.removeRoundObserver(trace.get());
        EXPECT_EQ(trace->roundsWritten(), 3u);
    }

    // Characters outside [A-Za-z0-9_-] map to '-'; one line per round.
    std::ifstream in(dir / "cnn_iid-Fixed--4--1--6-.jsonl");
    ASSERT_TRUE(in.good());
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        EXPECT_NE(line.find("\"round\":" + std::to_string(++lines)),
                  std::string::npos);
    EXPECT_EQ(lines, 3u);
    in.close();
    std::filesystem::remove_all(root);
}

TEST(JsonlTraceWriter, OpenRoundTraceWithoutADirectoryIsNull)
{
    EXPECT_EQ(openRoundTrace("", "quickstart_trace"), nullptr);
}
