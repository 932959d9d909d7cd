/**
 * @file
 * Tests for the FedGPO policy itself: decision plumbing, Table 2
 * compliance, learning behaviour on a synthetic bandit, the memory
 * footprint claim of Section 5.4, and the knob range checks.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/fedgpo.h"
#include "util/logging.h"

namespace fedgpo {
namespace core {
namespace {

nn::LayerCensus
cnnCensus()
{
    nn::LayerCensus census;
    census.conv = 2;
    census.dense = 2;
    return census;
}

fl::DeviceObservation
makeObs(std::size_t id, device::Category cat, double co_cpu = 0.0,
        double bw = 80.0, std::size_t classes = 10)
{
    fl::DeviceObservation obs;
    obs.client_id = id;
    obs.category = cat;
    obs.interference.co_cpu = co_cpu;
    obs.network.bandwidth_mbps = bw;
    obs.data_classes = classes;
    obs.total_classes = 10;
    obs.shard_size = 30;
    return obs;
}

fl::RoundResult
makeResult(const std::vector<fl::PerDeviceParams> &params,
           const std::vector<fl::DeviceObservation> &devices,
           double accuracy, double energy_per_device)
{
    fl::RoundResult r;
    r.test_accuracy = accuracy;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        fl::ClientRoundReport report;
        report.client_id = devices[i].client_id;
        report.category = devices[i].category;
        report.params = params[i];
        report.cost.e_total = energy_per_device;
        report.samples = 30;
        r.participants.push_back(report);
        r.energy_participants += energy_per_device;
    }
    r.energy_total = r.energy_participants;
    return r;
}

TEST(FedGpo, ChooseClientsWithinTable2AndFleet)
{
    FedGpo policy;
    for (int i = 0; i < 20; ++i) {
        const int k = policy.chooseClients(200);
        bool in_set = false;
        for (int v : kClientSet)
            in_set |= v == k;
        EXPECT_TRUE(in_set) << k;
    }
    EXPECT_LE(policy.chooseClients(3), 3);
}

TEST(FedGpo, AssignReturnsTable2ParamsPerDevice)
{
    FedGpo policy;
    std::vector<fl::DeviceObservation> devices = {
        makeObs(0, device::Category::High),
        makeObs(1, device::Category::Mid),
        makeObs(2, device::Category::Low),
    };
    auto params = policy.assign(devices, cnnCensus());
    ASSERT_EQ(params.size(), 3u);
    for (const auto &p : params)
        EXPECT_NO_THROW(deviceActionIndex(p));
}

TEST(FedGpo, FeedbackUpdatesTables)
{
    FedGpo policy;
    std::vector<fl::DeviceObservation> devices = {
        makeObs(0, device::Category::High)};
    policy.chooseClients(40);
    auto params = policy.assign(devices, cnnCensus());
    const auto before = policy.categoryTable(device::Category::High)
                            .updates();
    policy.feedback(makeResult(params, devices, 0.5, 100.0));
    EXPECT_EQ(policy.categoryTable(device::Category::High).updates(),
              before + 1);
    EXPECT_EQ(policy.clientTable().updates(), 1u);
    EXPECT_EQ(policy.roundsSeen(), 1u);
}

TEST(FedGpo, QTableMemoryIsSmall)
{
    FedGpo policy;
    // 3 category tables (2304 x 30) + K table (24 x 5): a double Q value
    // and a uint32 visit counter per cell.
    const std::size_t per_cell = sizeof(double) + sizeof(std::uint32_t);
    const std::size_t expected =
        3 * kNumStates * kNumDeviceActions * per_cell +
        kNumGlobalStates * kNumClientActions * per_cell;
    EXPECT_EQ(policy.qTableBytes(), expected);
    EXPECT_LT(policy.qTableBytes(), 4u * 1024u * 1024u)
        << "Section 5.4 reports sub-MB tables; ours must stay small too";
}

TEST(FedGpo, LearnsToAvoidStragglerAction)
{
    // Synthetic bandit: the environment punishes (B=1, E=20)-style heavy
    // epochs on the Low tier with huge energy; FedGPO should learn to
    // stop choosing high-E actions for that state.
    FedGpoConfig config;
    config.seed = 3;
    FedGpo policy(config);
    auto census = cnnCensus();
    std::vector<fl::DeviceObservation> devices = {
        makeObs(0, device::Category::Low)};

    double acc = 0.10;
    for (int round = 0; round < 300; ++round) {
        policy.chooseClients(40);
        auto params = policy.assign(devices, census);
        // Energy grows with E; accuracy improves slightly regardless.
        const double energy = 10.0 * params[0].epochs;
        acc = std::min(0.99, acc + 0.002);
        policy.feedback(makeResult(params, devices, acc, energy));
    }
    // After learning, the greedy action for this state should be cheap.
    int heavy = 0;
    for (int i = 0; i < 50; ++i) {
        policy.chooseClients(40);
        auto params = policy.assign(devices, census);
        if (params[0].epochs >= 15)
            ++heavy;
        acc = std::min(0.99, acc + 0.001);
        policy.feedback(makeResult(params, devices,
                                   acc, 10.0 * params[0].epochs));
    }
    // Epsilon-greedy keeps ~10% exploration; greedy choices must be light.
    EXPECT_LT(heavy, 15);
}

TEST(FedGpo, LearningDeltaShrinksAsRewardStabilizes)
{
    FedGpoConfig config;
    config.seed = 5;
    config.epsilon = 0.0;  // pure exploitation for a clean signal
    FedGpo policy(config);
    auto census = cnnCensus();
    std::vector<fl::DeviceObservation> devices = {
        makeObs(0, device::Category::Mid)};
    double first_delta = 0.0;
    for (int round = 0; round < 120; ++round) {
        policy.chooseClients(40);
        auto params = policy.assign(devices, census);
        policy.feedback(makeResult(params, devices, 0.9, 50.0));
        if (round == 5)
            first_delta = policy.learningDelta();
    }
    EXPECT_LT(policy.learningDelta(), first_delta);
}

TEST(FedGpo, DistinctStatesLearnedIndependently)
{
    // Reward depends on the network bucket only; after training, the
    // greedy actions for the two states should differ in cost.
    FedGpoConfig config;
    config.seed = 7;
    FedGpo policy(config);
    auto census = cnnCensus();
    auto good_net = makeObs(0, device::Category::High, 0.0, 100.0);
    auto bad_net = makeObs(1, device::Category::High, 0.0, 10.0);

    double acc = 0.1;
    for (int round = 0; round < 400; ++round) {
        policy.chooseClients(40);
        auto obs = round % 2 == 0 ? good_net : bad_net;
        auto params = policy.assign({obs}, census);
        // Bad network punishes high E harder (stragglers), good network
        // punishes tiny E (communication amortization).
        const bool bad = round % 2 != 0;
        const double energy =
            bad ? 20.0 * params[0].epochs
                : 300.0 / std::max(1, params[0].epochs);
        acc = std::min(0.99, acc + 0.001);
        policy.feedback(makeResult({params[0]}, {obs}, acc, energy));
    }
    // Compare greedy E choices under epsilon ~ 0 by sampling repeatedly.
    int good_e = 0, bad_e = 0, trials = 30;
    for (int i = 0; i < trials; ++i) {
        policy.chooseClients(40);
        auto pg = policy.assign({good_net}, census);
        good_e += pg[0].epochs;
        acc = std::min(0.99, acc + 0.0005);
        policy.feedback(makeResult({pg[0]}, {good_net}, acc,
                                   300.0 / std::max(1, pg[0].epochs)));
        policy.chooseClients(40);
        auto pb = policy.assign({bad_net}, census);
        bad_e += pb[0].epochs;
        acc = std::min(0.99, acc + 0.0005);
        policy.feedback(makeResult({pb[0]}, {bad_net}, acc,
                                   20.0 * pb[0].epochs));
    }
    EXPECT_GT(good_e, bad_e) << "good-network state should prefer larger E";
}

TEST(FedGpoConfigValidation, RejectsOutOfRangeKnobs)
{
    // Each knob with finite values just outside its range and a value on
    // its closed edge; NaN and +-Inf are tried on every knob as well.
    struct Knob
    {
        const char *name;
        double &(*field)(FedGpoConfig &);
        std::vector<double> out_of_range;
        double edge;
    };
    const std::vector<Knob> knobs = {
        {"gamma", [](FedGpoConfig &c) -> double & { return c.gamma; },
         {0.0, -0.1, 1.5},
         1.0},
        {"mu", [](FedGpoConfig &c) -> double & { return c.mu; },
         {-0.1, 1.0},
         0.0},
        {"epsilon", [](FedGpoConfig &c) -> double & { return c.epsilon; },
         {-0.1, 2.0},
         1.0},
        {"optimism", [](FedGpoConfig &c) -> double & { return c.optimism; },
         {-1.0},
         0.0},
        {"reward.alpha",
         [](FedGpoConfig &c) -> double & { return c.reward.alpha; },
         {-0.1},
         0.0},
        {"reward.beta",
         [](FedGpoConfig &c) -> double & { return c.reward.beta; },
         {-1.0},
         0.0},
        {"reward.energy_weight",
         [](FedGpoConfig &c) -> double & { return c.reward.energy_weight; },
         {-1.0},
         0.0},
        {"reward.delta_cap",
         [](FedGpoConfig &c) -> double & { return c.reward.delta_cap; },
         {-1.0},
         0.0},
        {"reward.stall_energy_factor",
         [](FedGpoConfig &c) -> double & {
             return c.reward.stall_energy_factor;
         },
         {-0.5},
         0.0},
        {"reward.staleness_weight",
         [](FedGpoConfig &c) -> double & {
             return c.reward.staleness_weight;
         },
         {-1.0},
         0.0},
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (const Knob &knob : knobs) {
        std::vector<double> bad = knob.out_of_range;
        bad.insert(bad.end(),
                   {std::numeric_limits<double>::quiet_NaN(), inf, -inf});
        for (double value : bad) {
            FedGpoConfig config;
            knob.field(config) = value;
            try {
                FedGpo policy(config);
                ADD_FAILURE() << knob.name << " = " << value
                              << " constructed";
            } catch (const util::FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(knob.name),
                          std::string::npos)
                    << e.what();
            }
        }
    }

    // Each knob on its edge, and every value the benches and tests set,
    // still constructs.
    for (const Knob &knob : knobs) {
        FedGpoConfig config;
        knob.field(config) = knob.edge;
        EXPECT_NO_THROW(FedGpo{config}) << knob.name << " = " << knob.edge;
    }
    for (double gamma : {0.1, 0.3, 0.5, 0.9}) {
        FedGpoConfig config;
        config.gamma = gamma;
        EXPECT_NO_THROW(FedGpo{config}) << "gamma " << gamma;
    }
    for (double mu : {0.1, 0.9}) {
        FedGpoConfig config;
        config.mu = mu;
        EXPECT_NO_THROW(FedGpo{config}) << "mu " << mu;
    }
    FedGpoConfig greedy;
    greedy.epsilon = 0.0;
    EXPECT_NO_THROW(FedGpo{greedy});
    EXPECT_NO_THROW(FedGpo{});
}

} // namespace
} // namespace core
} // namespace fedgpo
