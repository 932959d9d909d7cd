/**
 * @file
 * Tests for the FL value types, the Client local-training step, and the
 * convergence tracker.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "fl/convergence.h"
#include "fl/types.h"
#include "fleet/client.h"
#include "models/zoo.h"
#include "util/rng.h"

namespace fedgpo {
namespace fl {
namespace {

TEST(GlobalParams, ToStringMatchesPaperNotation)
{
    GlobalParams p{8, 10, 20};
    EXPECT_EQ(p.toString(), "(8, 10, 20)");
}

TEST(GlobalParams, Equality)
{
    GlobalParams a{8, 10, 20}, b{8, 10, 20}, c{4, 10, 20};
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
}

class ClientTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        util::Rng data_rng(1);
        dataset_ = data::makeSyntheticMnist(60, data_rng);
        shard_.clear();
        for (std::size_t i = 0; i < 24; ++i)
            shard_.push_back(i);
    }

    data::Dataset dataset_;
    std::vector<std::size_t> shard_;
};

TEST_F(ClientTest, LocalTrainReturnsFullWeightVector)
{
    fleet::Client client(0, device::Category::High, shard_,
                  device::InterferenceProcess(false), util::Rng(2));
    auto model = models::buildModel(models::Workload::CnnMnist, 3);
    util::Rng train_rng(20);
    auto result = client.localTrain(*model, train_rng, dataset_,
                                    PerDeviceParams{8, 1}, 0.05);
    EXPECT_EQ(result.weights.size(), model->paramCount());
    EXPECT_EQ(result.samples, shard_.size());
    EXPECT_GT(result.train_loss, 0.0);
    EXPECT_TRUE(std::isfinite(result.train_loss));
}

TEST_F(ClientTest, TrainingChangesWeights)
{
    fleet::Client client(0, device::Category::Mid, shard_,
                  device::InterferenceProcess(false), util::Rng(4));
    auto model = models::buildModel(models::Workload::CnnMnist, 3);
    auto before = model->saveParams();
    util::Rng train_rng(21);
    client.localTrain(*model, train_rng, dataset_, PerDeviceParams{8, 2},
                      0.05);
    auto after = model->saveParams();
    EXPECT_NE(before, after);
}

TEST_F(ClientTest, MoreEpochsLowerLocalLoss)
{
    auto model1 = models::buildModel(models::Workload::CnnMnist, 3);
    auto model2 = models::buildModel(models::Workload::CnnMnist, 3);
    fleet::Client c1(0, device::Category::High, shard_,
              device::InterferenceProcess(false), util::Rng(5));
    fleet::Client c2(0, device::Category::High, shard_,
              device::InterferenceProcess(false), util::Rng(5));
    util::Rng rng1(22), rng10(22);
    auto r1 = c1.localTrain(*model1, rng1, dataset_, PerDeviceParams{8, 1},
                            0.05);
    auto r10 = c2.localTrain(*model2, rng10, dataset_,
                             PerDeviceParams{8, 10}, 0.05);
    EXPECT_LT(r10.train_loss, r1.train_loss);
}

TEST_F(ClientTest, RuntimeStateAdvances)
{
    fleet::Client client(0, device::Category::Low, shard_,
                  device::InterferenceProcess(true, 1.0), util::Rng(6));
    device::NetworkModel net(false);
    client.stepRuntime(net);
    EXPECT_GT(client.network().bandwidth_mbps, 0.0);
}

TEST_F(ClientTest, BatchLargerThanShardStillTrains)
{
    fleet::Client client(0, device::Category::High, shard_,
                  device::InterferenceProcess(false), util::Rng(7));
    auto model = models::buildModel(models::Workload::CnnMnist, 3);
    util::Rng train_rng(23);
    auto result = client.localTrain(*model, train_rng, dataset_,
                                    PerDeviceParams{32, 1}, 0.05);
    EXPECT_EQ(result.samples, shard_.size());
}

TEST(ConvergenceTracker, SettlesAfterPlateau)
{
    ConvergenceTracker tracker(3, 0.01, 0.5);
    tracker.add(0.2);
    tracker.add(0.5);
    tracker.add(0.8);
    EXPECT_FALSE(tracker.converged());
    tracker.add(0.85);
    tracker.add(0.853);
    tracker.add(0.854);  // window improvement < 0.01 and above the floor
    EXPECT_TRUE(tracker.converged());
    EXPECT_GT(tracker.convergedRound(), 3);
}

TEST(ConvergenceTracker, FloorBlocksChanceLevelPlateaus)
{
    ConvergenceTracker tracker(3, 0.01, 0.5);
    for (int i = 0; i < 10; ++i)
        tracker.add(0.1);  // flat but hopeless
    EXPECT_FALSE(tracker.converged());
}

TEST(ConvergenceTracker, FirstDetectionSticks)
{
    ConvergenceTracker tracker(2, 0.05, 0.0);
    tracker.add(0.6);
    tracker.add(0.6);
    ASSERT_TRUE(tracker.converged());
    const int round = tracker.convergedRound();
    tracker.add(0.9);  // later improvement must not move the mark
    EXPECT_EQ(tracker.convergedRound(), round);
}

TEST(RoundsToAccuracy, FindsFirstCrossing)
{
    EXPECT_EQ(roundsToAccuracy({0.1, 0.5, 0.9, 0.95}, 0.9), 3);
    EXPECT_EQ(roundsToAccuracy({0.1, 0.2}, 0.9), -1);
    EXPECT_EQ(roundsToAccuracy({}, 0.5), -1);
}

} // namespace
} // namespace fl
} // namespace fedgpo
