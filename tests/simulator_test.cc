/**
 * @file
 * Integration tests of the FedAvg simulator: selection, aggregation
 * algebra, straggler handling, energy bookkeeping (Eqs. 4-6), and
 * determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fl/simulator.h"
#include "optim/callback_policy.h"
#include "optim/fixed.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace {

FlConfig
smallConfig()
{
    FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 12;
    config.train_samples = 240;
    config.test_samples = 80;
    config.seed = 5;
    return config;
}

TEST(Simulator, FleetAndModelSetup)
{
    FlSimulator sim(smallConfig());
    EXPECT_EQ(sim.numDevices(), 12u);
    EXPECT_GT(sim.trainFlopsPerSample(), 0u);
    EXPECT_GT(sim.paramBytes(), 0u);
    EXPECT_EQ(sim.census().conv, 2u);
    EXPECT_EQ(sim.census().dense, 2u);
    // Every device owns a non-empty shard.
    for (std::size_t i = 0; i < sim.numDevices(); ++i)
        EXPECT_FALSE(sim.client(i).shard().empty());
}

TEST(Simulator, RoundWithParamsRunsAndAccounts)
{
    FlSimulator sim(smallConfig());
    RoundResult r = sim.runRoundWithParams(GlobalParams{8, 2, 5});
    EXPECT_EQ(r.round, 1);
    EXPECT_EQ(r.participants.size(), 5u);
    EXPECT_GT(r.round_time, 0.0);
    EXPECT_GT(r.energy_participants, 0.0);
    EXPECT_GT(r.energy_idle, 0.0);
    EXPECT_NEAR(r.energy_total, r.energy_participants + r.energy_idle,
                1e-9);
    EXPECT_GE(r.test_accuracy, 0.0);
    EXPECT_LE(r.test_accuracy, 1.0);
}

TEST(Simulator, KClampedToFleet)
{
    FlSimulator sim(smallConfig());
    RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 100});
    EXPECT_EQ(r.participants.size(), sim.numDevices());
}

TEST(Simulator, RoundTimeIsMaxOfKeptParticipants)
{
    FlSimulator sim(smallConfig());
    RoundResult r = sim.runRoundWithParams(GlobalParams{8, 2, 6});
    double max_kept = 0.0;
    for (const auto &p : r.participants)
        if (!p.dropped)
            max_kept = std::max(max_kept, p.cost.t_round);
    EXPECT_GE(r.round_time + 1e-9, max_kept);
}

TEST(Simulator, AccuracyImprovesOverRounds)
{
    FlSimulator sim(smallConfig());
    double first = 0.0, last = 0.0;
    for (int i = 0; i < 8; ++i) {
        RoundResult r = sim.runRoundWithParams(GlobalParams{8, 5, 6});
        if (i == 0)
            first = r.test_accuracy;
        last = r.test_accuracy;
    }
    EXPECT_GT(last, first + 0.2) << "FedAvg must actually learn";
    EXPECT_GT(last, 0.7);
}

TEST(Simulator, DeterministicGivenSeed)
{
    FlSimulator a(smallConfig()), b(smallConfig());
    for (int i = 0; i < 3; ++i) {
        RoundResult ra = a.runRoundWithParams(GlobalParams{8, 2, 5});
        RoundResult rb = b.runRoundWithParams(GlobalParams{8, 2, 5});
        EXPECT_DOUBLE_EQ(ra.test_accuracy, rb.test_accuracy);
        EXPECT_DOUBLE_EQ(ra.energy_total, rb.energy_total);
        EXPECT_DOUBLE_EQ(ra.round_time, rb.round_time);
    }
}

TEST(Simulator, DifferentSeedsDiffer)
{
    FlConfig c1 = smallConfig();
    FlConfig c2 = smallConfig();
    c2.seed = 99;
    FlSimulator a(c1), b(c2);
    RoundResult ra = a.runRoundWithParams(GlobalParams{8, 2, 5});
    RoundResult rb = b.runRoundWithParams(GlobalParams{8, 2, 5});
    EXPECT_NE(ra.energy_total, rb.energy_total);
}

TEST(Simulator, StragglersDroppedUnderHarshDeadline)
{
    FlConfig config = smallConfig();
    config.deadline_factor = 1.01;  // anything above the median is out
    config.interference = true;     // widen the spread
    FlSimulator sim(config);
    std::size_t total_dropped = 0;
    for (int i = 0; i < 5; ++i) {
        RoundResult r = sim.runRoundWithParams(GlobalParams{8, 5, 8});
        total_dropped += r.droppedCount();
        EXPECT_EQ(r.dropped_diverged, 0u);
        EXPECT_EQ(r.dropped_straggler + r.dropped_diverged,
                  r.droppedCount());
        for (const auto &p : r.participants) {
            if (p.dropped) {
                // Dropped devices still burned energy up to the deadline,
                // but never accrue wait energy (they left at the cutoff).
                EXPECT_EQ(p.drop_reason, DropReason::Straggler);
                EXPECT_GT(p.cost.e_total, 0.0);
                EXPECT_EQ(p.cost.e_wait, 0.0);
                EXPECT_DOUBLE_EQ(p.cost.e_total,
                                 p.cost.e_comp + p.cost.e_comm);
            } else {
                EXPECT_EQ(p.drop_reason, DropReason::None);
            }
        }
    }
    EXPECT_GT(total_dropped, 0u);
}

TEST(Simulator, RejectsNonPositiveDeadlineFactor)
{
    // A deadline at or below zero drops everyone and charges negative
    // energy; NaN would switch the deadline off.
    for (double factor :
         {-1.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
        FlConfig config = smallConfig();
        config.deadline_factor = factor;
        EXPECT_THROW(FlSimulator sim(config), util::FatalError) << factor;
    }
}

TEST(Simulator, RejectsBadDirichletAlpha)
{
    // NaN or inf shares were cast to size_t (undefined behaviour), and
    // alpha <= 0 threw std::invalid_argument from the Gamma draw.
    for (double alpha : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
        FlConfig config = smallConfig();
        config.distribution = data::Distribution::NonIid;
        config.dirichlet_alpha = alpha;
        EXPECT_THROW(FlSimulator sim(config), util::FatalError) << alpha;
    }
}

TEST(Simulator, RejectsBadLearningRate)
{
    // 0 selects the workload default. NaN, negative and -Inf rates
    // would train silently at that default; +Inf is no usable rate.
    for (double lr : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()}) {
        FlConfig config = smallConfig();
        config.lr = lr;
        EXPECT_THROW(FlSimulator sim(config), util::FatalError) << lr;
    }
    for (double lr : {0.0, 1e12}) {
        FlConfig config = smallConfig();
        config.lr = lr;
        EXPECT_NO_THROW(FlSimulator sim(config)) << lr;
    }
}

TEST(Simulator, NoDropsWithGenerousDeadlineAndNoVariance)
{
    FlConfig config = smallConfig();
    config.deadline_factor = 50.0;
    FlSimulator sim(config);
    for (int i = 0; i < 3; ++i) {
        RoundResult r = sim.runRoundWithParams(GlobalParams{8, 2, 8});
        EXPECT_EQ(r.droppedCount(), 0u);
    }
}

TEST(Simulator, AggregationIsSampleWeightedAverage)
{
    // With every client dropped, the global model must not move.
    FlConfig config = smallConfig();
    config.deadline_factor = 1e-9;  // drop everyone
    FlSimulator sim(config);
    auto before = sim.globalModel().saveParams();
    RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 6});
    EXPECT_EQ(r.droppedCount(), r.participants.size());
    EXPECT_EQ(r.dropped_straggler, r.participants.size());
    EXPECT_EQ(r.samples_aggregated, 0u);
    auto after = sim.globalModel().saveParams();
    EXPECT_EQ(before, after);
}

TEST(Simulator, PredictedRoundTimePositiveAndParamSensitive)
{
    FlSimulator sim(smallConfig());
    sim.runRoundWithParams(GlobalParams{8, 1, 4});  // populate states
    const double t_small = sim.predictedRoundTime(0, PerDeviceParams{8, 1});
    const double t_big = sim.predictedRoundTime(0, PerDeviceParams{8, 20});
    EXPECT_GT(t_small, 0.0);
    EXPECT_GT(t_big, 5.0 * t_small);
}

TEST(Simulator, EvaluateGlobalConsistentWithReportedAccuracy)
{
    FlSimulator sim(smallConfig());
    RoundResult r = sim.runRoundWithParams(GlobalParams{8, 2, 5});
    auto eval = sim.evaluateGlobal();
    EXPECT_NEAR(eval.accuracy, r.test_accuracy, 1e-9);
}

TEST(Simulator, NonIidShardsHoldFewerClasses)
{
    FlConfig iid = smallConfig();
    FlConfig non = smallConfig();
    non.distribution = data::Distribution::NonIid;
    FlSimulator a(iid), b(non);
    // Compare average classes-present across the fleet via observations.
    auto count = [](FlSimulator &sim) {
        RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 12});
        (void)r;
        return 0;
    };
    count(a);
    count(b);
    // Direct shard inspection:
    double iid_avg = 0.0, non_avg = 0.0;
    for (std::size_t i = 0; i < a.numDevices(); ++i)
        iid_avg += static_cast<double>(a.client(i).shardSize());
    for (std::size_t i = 0; i < b.numDevices(); ++i)
        non_avg += static_cast<double>(b.client(i).shardSize());
    // Same total data regardless of distribution.
    EXPECT_EQ(iid_avg, non_avg);
}

TEST(Simulator, PolicyDrivenRoundUsesPolicyAssignments)
{
    FlSimulator sim(smallConfig());
    optim::FixedOptimizer policy(GlobalParams{4, 2, 3});
    RoundResult r = sim.runRound(policy);
    EXPECT_EQ(r.participants.size(), 3u);
    for (const auto &p : r.participants) {
        EXPECT_EQ(p.params.batch, 4);
        EXPECT_EQ(p.params.epochs, 2);
    }
}

TEST(Simulator, RejectsPolicyParamCountMismatch)
{
    // The round indexes a policy's parameter sets by participant slot, so
    // one set per selected device is a contract: too few read past the
    // vector, too many go unused. Sync's Select stage and the event
    // pump's fill both assign through it.
    for (const ProtocolMode mode :
         {ProtocolMode::Sync, ProtocolMode::Async}) {
        for (const std::size_t count : {0u, 2u, 6u}) {
            SCOPED_TRACE(std::string(mode == ProtocolMode::Sync ? "sync"
                                                               : "async") +
                         ", " + std::to_string(count) + " sets for K = 4");
            FlConfig config = smallConfig();
            config.protocol.mode = mode;
            FlSimulator sim(config);
            optim::CallbackPolicy policy(
                "miscount", 4,
                [count](const std::vector<DeviceObservation> &,
                        const nn::LayerCensus &) {
                    return std::vector<PerDeviceParams>(
                        count, PerDeviceParams{4, 1});
                });
            EXPECT_THROW(sim.runRound(policy), util::FatalError);
        }
    }
}

TEST(Simulator, RejectsZeroDevices)
{
    FlConfig config = smallConfig();
    config.n_devices = 0;
    EXPECT_THROW(FlSimulator sim(config), util::FatalError);
}

} // namespace
} // namespace fl
} // namespace fedgpo
