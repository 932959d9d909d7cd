/**
 * @file
 * Tests for the scenario/campaign harness.
 */

#include <gtest/gtest.h>

#include "core/fedgpo.h"
#include "exp/campaign.h"
#include "exp/scenario.h"
#include "optim/fixed.h"

namespace fedgpo {
namespace exp {
namespace {

Scenario
tinyScenario()
{
    Scenario s;
    s.workload = models::Workload::CnnMnist;
    s.n_devices = 10;
    s.train_samples = 200;
    s.test_samples = 60;
    s.rounds = 6;
    s.seed = 3;
    return s;
}

TEST(Scenario, VarianceMapsToFlConfig)
{
    Scenario s = tinyScenario();
    s.variance = Variance::Interference;
    auto c = s.toFlConfig();
    EXPECT_TRUE(c.interference);
    EXPECT_FALSE(c.network_unstable);
    s.variance = Variance::Network;
    c = s.toFlConfig();
    EXPECT_FALSE(c.interference);
    EXPECT_TRUE(c.network_unstable);
    s.variance = Variance::Both;
    c = s.toFlConfig();
    EXPECT_TRUE(c.interference);
    EXPECT_TRUE(c.network_unstable);
}

TEST(Scenario, NamesAreDescriptive)
{
    auto s = makeScenario(models::Workload::LstmShakespeare,
                          Variance::Network, data::Distribution::NonIid);
    EXPECT_NE(s.name.find("LSTM-Shakespeare"), std::string::npos);
    EXPECT_NE(s.name.find("unstable network"), std::string::npos);
    EXPECT_NE(s.name.find("non-IID"), std::string::npos);
}

TEST(Campaign, FixedRunAccumulatesConsistently)
{
    Scenario s = tinyScenario();
    auto r = runCampaignFixed(s, fl::GlobalParams{8, 2, 5}, 6);
    EXPECT_EQ(r.accuracy.size(), 6u);
    EXPECT_EQ(r.round_time.size(), 6u);
    double sum_e = 0.0, sum_t = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
        sum_e += r.round_energy[i];
        sum_t += r.round_time[i];
    }
    EXPECT_NEAR(r.total_energy, sum_e, 1e-9);
    EXPECT_NEAR(r.total_time, sum_t, 1e-9);
    EXPECT_NEAR(r.avg_round_time, sum_t / 6.0, 1e-9);
    EXPECT_GT(r.final_accuracy, 0.0);
    EXPECT_GE(r.best_accuracy, r.final_accuracy);
}

TEST(Campaign, PolicyRunRecordsPolicyName)
{
    Scenario s = tinyScenario();
    core::FedGpo policy;
    auto r = runCampaign(s, policy, 4);
    EXPECT_EQ(r.policy, "FedGPO");
    EXPECT_EQ(r.accuracy.size(), 4u);
}

TEST(Campaign, PpwUsesConvergenceEnergyWhenConverged)
{
    CampaignResult r;
    r.total_energy = 1000.0;
    r.converged_round = 5;
    r.energy_to_convergence = 400.0;
    EXPECT_DOUBLE_EQ(r.ppw(), 1.0 / 400.0);
    r.converged_round = -1;
    EXPECT_DOUBLE_EQ(r.ppw(), 1.0 / 1000.0);
}

TEST(Campaign, EnergyByCategorySumsToParticipantEnergy)
{
    Scenario s = tinyScenario();
    auto r = runCampaignFixed(s, fl::GlobalParams{8, 2, 8}, 3);
    const double by_cat = r.energy_by_category[0] +
                          r.energy_by_category[1] +
                          r.energy_by_category[2];
    EXPECT_GT(by_cat, 0.0);
    EXPECT_LE(by_cat, r.total_energy + 1e-9);
}

TEST(Campaign, DeterministicAcrossRuns)
{
    Scenario s = tinyScenario();
    auto a = runCampaignFixed(s, fl::GlobalParams{8, 2, 5}, 4);
    auto b = runCampaignFixed(s, fl::GlobalParams{8, 2, 5}, 4);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.round_energy, b.round_energy);
}

TEST(GridSearch, ReturnsMemberOfGrid)
{
    Scenario s = tinyScenario();
    std::vector<fl::GlobalParams> grid = {
        {8, 2, 5}, {16, 1, 5}, {4, 5, 5}};
    auto best = gridSearchBestFixed(s, grid, 3);
    bool found = false;
    for (const auto &g : grid)
        found |= g == best;
    EXPECT_TRUE(found);
}

TEST(CoarseGrid, CoversPaperRegion)
{
    auto grid = coarseGrid();
    EXPECT_EQ(grid.size(), 18u);
    bool has_paper_best = false;
    for (const auto &g : grid)
        has_paper_best |= g == fl::GlobalParams{8, 10, 20};
    EXPECT_TRUE(has_paper_best);
}

} // namespace
} // namespace exp
} // namespace fedgpo
