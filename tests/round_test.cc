/**
 * @file
 * Unit tests of the round pipeline's pieces: the deadline drop, FedAvg,
 * divergence rejection, the observer event stream, and the JSONL trace
 * writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "fl/round/aggregator.h"
#include "nn/dense.h"
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

TEST(RejectDivergedUpdates, NonFiniteUpdateExcludedFromAggregation)
{
    std::vector<float> gw = {0.0f};
    RoundContext ctx = contextWithUpdates({2.0f, 0.0f}, {1, 1}, gw);
    ctx.updates[1].weights[0] = std::numeric_limits<float>::quiet_NaN();

    EXPECT_EQ(rejectDivergedUpdates(ctx), 1u);
    EXPECT_TRUE(ctx.result.participants[1].dropped);
    EXPECT_EQ(ctx.result.participants[1].drop_reason, DropReason::Diverged);
    EXPECT_EQ(ctx.result.dropped_diverged, 1u);
    EXPECT_EQ(ctx.result.dropped_straggler, 0u);

    const AggregationStats stats = fedAvg(ctx);
    EXPECT_EQ(stats.contributors, 1u);
    EXPECT_FLOAT_EQ(gw[0], 2.0f) << "only the finite update contributes";
    EXPECT_TRUE(std::isfinite(gw[0]));
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
    std::vector<float> gw = {0.0f};
    RoundContext ctx = contextWithUpdates({2.0f, dw[0]}, {1, 1}, gw);
    EXPECT_EQ(rejectDivergedUpdates(ctx), 1u);
    EXPECT_TRUE(ctx.result.participants[1].dropped);
    EXPECT_EQ(ctx.result.participants[1].drop_reason, DropReason::Diverged);
}

TEST(RejectDivergedUpdates, AlreadyDroppedClientsNotRecounted)
{
    std::vector<float> gw = {0.0f};
    RoundContext ctx = contextWithUpdates({2.0f}, {1}, gw);
    ctx.updates[0].weights[0] = std::numeric_limits<float>::infinity();
    ctx.result.participants[0].dropped = true;
    ctx.result.participants[0].drop_reason = DropReason::Straggler;
    ctx.result.dropped_straggler = 1;

    EXPECT_EQ(rejectDivergedUpdates(ctx), 0u);
    EXPECT_EQ(ctx.result.dropped_diverged, 0u);
    EXPECT_EQ(ctx.result.participants[0].drop_reason,
              DropReason::Straggler);
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
