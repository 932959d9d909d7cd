/**
 * @file
 * Tests for the FedGPO core extensions: Q-table (de)serialization and
 * policy state save/load.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "core/fedgpo.h"
#include "util/logging.h"

namespace fedgpo {
namespace core {
namespace {

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
