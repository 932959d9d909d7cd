/**
 * @file
 * Tests for the FedGPO core extensions: 1-d k-means state clustering,
 * Q-table (de)serialization and policy state save/load.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/clustering.h"
#include "core/fedgpo.h"
#include "util/logging.h"

namespace fedgpo {
namespace core {
namespace {

TEST(Kmeans1d, SeparatesObviousClusters)
{
    std::vector<double> values;
    util::Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        values.push_back(rng.gaussian(10.0, 0.5));
        values.push_back(rng.gaussian(50.0, 0.5));
        values.push_back(rng.gaussian(90.0, 0.5));
    }
    auto c = kmeans1d(values, 3);
    ASSERT_EQ(c.centroids.size(), 3u);
    EXPECT_NEAR(c.centroids[0], 10.0, 1.0);
    EXPECT_NEAR(c.centroids[1], 50.0, 1.0);
    EXPECT_NEAR(c.centroids[2], 90.0, 1.0);
    ASSERT_EQ(c.boundaries.size(), 2u);
    EXPECT_GT(c.boundaries[0], 10.0);
    EXPECT_LT(c.boundaries[0], 50.0);
}

TEST(Kmeans1d, CentroidsAndBoundariesSorted)
{
    std::vector<double> values = {5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
    auto c = kmeans1d(values, 4);
    for (std::size_t i = 1; i < c.centroids.size(); ++i)
        EXPECT_LE(c.centroids[i - 1], c.centroids[i]);
    for (std::size_t i = 1; i < c.boundaries.size(); ++i)
        EXPECT_LE(c.boundaries[i - 1], c.boundaries[i]);
}

TEST(Kmeans1d, SingleClusterIsMean)
{
    std::vector<double> values = {1.0, 2.0, 3.0};
    auto c = kmeans1d(values, 1);
    ASSERT_EQ(c.centroids.size(), 1u);
    EXPECT_NEAR(c.centroids[0], 2.0, 1e-9);
    EXPECT_TRUE(c.boundaries.empty());
}

TEST(Kmeans1d, Deterministic)
{
    std::vector<double> values;
    util::Rng rng(2);
    for (int i = 0; i < 200; ++i)
        values.push_back(rng.uniform(0.0, 100.0));
    auto a = kmeans1d(values, 4);
    auto b = kmeans1d(values, 4);
    EXPECT_EQ(a.centroids, b.centroids);
}

TEST(Kmeans1d, RejectsBadK)
{
    std::vector<double> values = {1.0, 2.0};
    EXPECT_THROW(kmeans1d(values, 0), util::FatalError);
    EXPECT_THROW(kmeans1d(values, 3), util::FatalError);
    EXPECT_THROW(kmeans1d({}, 1), util::FatalError);
}

TEST(Kmeans1d, BucketOfCountsBoundariesBelow)
{
    std::vector<double> boundaries = {10.0, 20.0};
    EXPECT_EQ(bucketOf(5.0, boundaries), 0u);
    EXPECT_EQ(bucketOf(15.0, boundaries), 1u);
    EXPECT_EQ(bucketOf(25.0, boundaries), 2u);
    EXPECT_EQ(bucketOf(10.0, boundaries), 0u);  // boundary is exclusive
}

TEST(Kmeans1d, CanReproduceTable1StyleBuckets)
{
    // Bandwidths drawn from the regular/bad mixture should yield a
    // boundary near the paper's 40 Mbps threshold.
    std::vector<double> bw;
    util::Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        bw.push_back(rng.gaussian(85.0, 10.0));
        if (i % 3 == 0)
            bw.push_back(rng.gaussian(15.0, 8.0));
    }
    auto c = kmeans1d(bw, 2);
    ASSERT_EQ(c.boundaries.size(), 1u);
    EXPECT_GT(c.boundaries[0], 25.0);
    EXPECT_LT(c.boundaries[0], 65.0);
}

TEST(QTableSerialize, RoundTrips)
{
    util::Rng rng(4);
    QTable a(8, 5, rng, -1.0, 1.0);
    a.update(3, 2, 7.0, 3, 0.5, 0.1);
    a.update(1, 4, -2.0, 1, 0.5, 0.1);
    std::stringstream buf;
    a.serialize(buf);

    util::Rng rng2(99);
    QTable b(8, 5, rng2);
    b.deserialize(buf);
    for (std::size_t s = 0; s < 8; ++s)
        for (std::size_t act = 0; act < 5; ++act) {
            EXPECT_DOUBLE_EQ(a.q(s, act), b.q(s, act));
            EXPECT_EQ(a.visits(s, act), b.visits(s, act));
        }
}

TEST(QTableSerialize, RejectsDimensionMismatch)
{
    util::Rng rng(5);
    QTable a(4, 3, rng);
    std::stringstream buf;
    a.serialize(buf);
    QTable b(4, 4, rng);
    EXPECT_THROW(b.deserialize(buf), util::FatalError);
}

TEST(QTableSerialize, RejectsGarbage)
{
    util::Rng rng(6);
    QTable t(2, 2, rng);
    std::stringstream buf("not a qtable");
    EXPECT_THROW(t.deserialize(buf), util::FatalError);
}

nn::LayerCensus
cnnCensus()
{
    nn::LayerCensus c;
    c.conv = 2;
    c.dense = 2;
    return c;
}

fl::DeviceObservation
obsFor(std::size_t id, device::Category cat)
{
    fl::DeviceObservation obs;
    obs.client_id = id;
    obs.category = cat;
    obs.network.bandwidth_mbps = 80.0;
    obs.data_classes = 10;
    obs.total_classes = 10;
    obs.shard_size = 25;
    return obs;
}

TEST(FedGpoState, SaveLoadRoundTrips)
{
    FedGpoConfig config;
    config.seed = 7;
    FedGpo trained(config);
    // Exercise a few decisions so the tables hold learned values.
    for (int r = 0; r < 10; ++r) {
        trained.chooseClients(40);
        std::vector<fl::DeviceObservation> devices = {
            obsFor(0, device::Category::High),
            obsFor(1, device::Category::Low)};
        auto params = trained.assign(devices, cnnCensus());
        fl::RoundResult result;
        result.test_accuracy = 0.5 + 0.02 * r;
        result.energy_total = 1000.0;
        for (std::size_t i = 0; i < devices.size(); ++i) {
            fl::ClientRoundReport report;
            report.client_id = i;
            report.category = devices[i].category;
            report.params = params[i];
            report.cost.e_total = 80.0;
            report.samples = 25;
            result.participants.push_back(report);
        }
        trained.feedback(result);
    }
    std::stringstream buf;
    trained.saveState(buf);

    FedGpoConfig config2;
    config2.seed = 99;  // different init; load must overwrite it
    FedGpo restored(config2);
    restored.loadState(buf);
    // Every cell's value and visit count survives, in every table.
    std::uint64_t visits = 0;
    auto expectSameTable = [&visits](const QTable &a, const QTable &b) {
        ASSERT_EQ(a.numStates(), b.numStates());
        ASSERT_EQ(a.numActions(), b.numActions());
        for (std::size_t s = 0; s < a.numStates(); ++s)
            for (std::size_t act = 0; act < a.numActions(); ++act) {
                EXPECT_EQ(a.q(s, act), b.q(s, act)) << s << "," << act;
                EXPECT_EQ(a.visits(s, act), b.visits(s, act))
                    << s << "," << act;
                visits += a.visits(s, act);
            }
    };
    for (auto cat : device::kAllCategories)
        expectSameTable(trained.categoryTable(cat),
                        restored.categoryTable(cat));
    expectSameTable(trained.clientTable(), restored.clientTable());
    // Ten rounds of two devices plus K: the tables hold learned cells.
    EXPECT_EQ(visits, 30u);
}

} // namespace
} // namespace core
} // namespace fedgpo
