/**
 * @file
 * Integration tests of the observability wiring: round-observer event
 * ordering (the decision record on the round-end context), the FedGPO
 * decision record's round-trip through the JSONL trace, and the
 * inertness guarantee that instrumentation never perturbs simulated
 * results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/action_space.h"
#include "core/fedgpo.h"
#include "fl/round/trace_writer.h"
#include "fl/simulator.h"
#include "obs/metrics.h"
#include "util/json.h"

using namespace fedgpo;
using namespace fedgpo::fl;

namespace {

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

/**
 * Observer that journals the event stream as readable tags; a decision
 * on the round-end context logs "decision" just before "end".
 */
class EventLog : public round::RoundObserver
{
  public:
    std::vector<std::string> events;

    void onStage(const round::RoundContext &, round::Stage stage,
                 double) override
    {
        events.push_back(std::string("stage:") + round::stageName(stage));
    }
    void onRoundEnd(const round::RoundContext &ctx) override
    {
        if (ctx.decision != nullptr) {
            events.push_back("decision");
            last_decision = *ctx.decision;
        }
        events.push_back("end");
    }

    std::size_t count(const std::string &tag) const
    {
        std::size_t n = 0;
        for (const std::string &e : events)
            n += (e == tag);
        return n;
    }
    std::ptrdiff_t indexOf(const std::string &tag) const
    {
        for (std::size_t i = 0; i < events.size(); ++i)
            if (events[i] == tag)
                return static_cast<std::ptrdiff_t>(i);
        return -1;
    }

    obs::DecisionRecord last_decision;
};

TEST(RoundObserverOrdering, DecisionFiresAfterEvaluateBeforeRoundEnd)
{
    FlSimulator sim(tinyConfig());
    core::FedGpo policy;
    EventLog log;
    sim.addRoundObserver(&log);
    sim.runRound(policy);
    sim.removeRoundObserver(&log);

    // One decision, on the round-end context: after every stage
    // (Evaluate last), so the policy feedback has already run.
    EXPECT_EQ(log.count("decision"), 1u);
    EXPECT_EQ(log.count("end"), 1u);
    const std::ptrdiff_t evaluate = log.indexOf("stage:evaluate");
    const std::ptrdiff_t decision = log.indexOf("decision");
    const std::ptrdiff_t end = log.indexOf("end");
    ASSERT_GE(evaluate, 0);
    ASSERT_GE(decision, 0);
    ASSERT_GE(end, 0);
    EXPECT_LT(evaluate, decision);
    EXPECT_LT(decision, end);
    EXPECT_EQ(end, static_cast<std::ptrdiff_t>(log.events.size()) - 1);

    // The record handed to observers is the policy's completed record.
    EXPECT_TRUE(log.last_decision.complete);
    EXPECT_EQ(log.last_decision.round, 1);
    EXPECT_FALSE(log.last_decision.devices.empty());
}

TEST(RoundObserverOrdering, StagesFireInPipelineOrder)
{
    FlSimulator sim(tinyConfig());
    core::FedGpo policy;
    EventLog log;
    sim.addRoundObserver(&log);
    sim.runRound(policy);
    sim.removeRoundObserver(&log);

    std::vector<std::string> stages;
    for (const std::string &e : log.events)
        if (e.rfind("stage:", 0) == 0)
            stages.push_back(e.substr(6));
    ASSERT_EQ(stages.size(), round::kStageCount);
    const std::vector<std::string> expected = {
        "select",    "train",     "encode", "cost",   "recover",
        "straggler", "aggregate", "energy", "evaluate"};
    EXPECT_EQ(stages, expected);
}

TEST(RoundObserverOrdering, NoDecisionWithoutAPolicyRecord)
{
    FlSimulator sim(tinyConfig());
    EventLog log;
    sim.addRoundObserver(&log);
    sim.runRoundWithParams(GlobalParams{4, 1, 6});
    sim.removeRoundObserver(&log);
    EXPECT_EQ(log.count("decision"), 0u);
    EXPECT_EQ(log.count("end"), 1u);
}

TEST(DecisionTrace, RoundTripsThroughJsonl)
{
    const std::string path = "obs_trace_test.jsonl";
    constexpr int kRounds = 3;
    {
        FlSimulator sim(tinyConfig());
        core::FedGpo policy;
        round::JsonlTraceWriter trace(path);
        ASSERT_TRUE(trace.ok());
        sim.addRoundObserver(&trace);
        for (int r = 0; r < kRounds; ++r)
            sim.runRound(policy);
        sim.removeRoundObserver(&trace);
        EXPECT_EQ(trace.roundsWritten(), static_cast<std::size_t>(kRounds));
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int rounds = 0;
    while (std::getline(in, line)) {
        ++rounds;
        util::JsonValue record;
        std::string error;
        ASSERT_TRUE(util::JsonValue::parse(line, record, &error)) << error;

        const util::JsonValue &decision = record.at("decision");
        ASSERT_TRUE(decision.isObject()) << "round " << rounds;
        EXPECT_EQ(decision.at("round").asNumber(), rounds);
        EXPECT_DOUBLE_EQ(decision.at("epsilon").asNumber(), 0.1);
        EXPECT_TRUE(decision.at("complete").asBool());

        // The global-K head: full Q-row plus the chosen action.
        const util::JsonValue &k = decision.at("k");
        ASSERT_TRUE(k.isObject());
        EXPECT_TRUE(k.has("state"));
        EXPECT_TRUE(k.has("explored"));
        EXPECT_TRUE(k.has("swept"));
        EXPECT_EQ(k.at("q_row").size(), core::kNumClientActions);
        EXPECT_GE(k.at("value").asNumber(), 1.0);

        // One device decision per selected participant.
        const util::JsonValue &devices = decision.at("devices");
        ASSERT_TRUE(devices.isArray());
        ASSERT_GT(devices.size(), 0u);
        for (std::size_t i = 0; i < devices.size(); ++i) {
            const util::JsonValue &d = devices.at(i);
            EXPECT_TRUE(d.has("id"));
            EXPECT_TRUE(d.has("state"));
            EXPECT_TRUE(d.has("action"));
            EXPECT_GT(d.at("batch").asNumber(), 0.0);
            EXPECT_GT(d.at("epochs").asNumber(), 0.0);
            EXPECT_TRUE(d.has("explored"));
            EXPECT_TRUE(d.has("q"));
            EXPECT_TRUE(d.has("visits"));
        }

        // Decomposed Eq. 1 reward: at least the energy/accuracy/
        // improvement terms, and the terms explain the total.
        const util::JsonValue &reward = decision.at("reward");
        ASSERT_TRUE(reward.isObject());
        EXPECT_TRUE(reward.has("energy_global_term"));
        EXPECT_TRUE(reward.has("energy_local_term"));
        EXPECT_TRUE(reward.has("accuracy_term"));
        EXPECT_TRUE(reward.has("improvement_term"));
        EXPECT_TRUE(reward.has("stall_penalty"));
        const double sum = reward.at("energy_global_term").asNumber() +
                           reward.at("energy_local_term").asNumber() +
                           reward.at("accuracy_term").asNumber() +
                           reward.at("improvement_term").asNumber() +
                           reward.at("stall_penalty").asNumber() +
                           reward.at("abort_penalty").asNumber();
        EXPECT_NEAR(sum, reward.at("total").asNumber(), 1e-9);
    }
    EXPECT_EQ(rounds, kRounds);
    std::remove(path.c_str());
}

TEST(DecisionTrace, MetricsSectionFollowsTheLevel)
{
    const std::string path = "obs_trace_metrics_test.jsonl";
    {
        obs::ScopedLevel scoped(obs::Level::Basic);
        FlSimulator sim(tinyConfig());
        round::JsonlTraceWriter trace(path);
        ASSERT_TRUE(trace.ok());
        sim.addRoundObserver(&trace);
        sim.runRoundWithParams(GlobalParams{4, 1, 6});
        sim.removeRoundObserver(&trace);
    }
    {
        std::ifstream in(path);
        std::string line;
        ASSERT_TRUE(std::getline(in, line));
        util::JsonValue record;
        std::string error;
        ASSERT_TRUE(util::JsonValue::parse(line, record, &error)) << error;
        EXPECT_TRUE(record.at("metrics").isObject());
        EXPECT_TRUE(record.at("metrics").at("counters").isObject());
    }
    std::remove(path.c_str());

    // At level off the section is absent and the line still parses.
    {
        obs::ScopedLevel scoped(obs::Level::Off);
        FlSimulator sim(tinyConfig());
        round::JsonlTraceWriter trace(path);
        ASSERT_TRUE(trace.ok());
        sim.addRoundObserver(&trace);
        sim.runRoundWithParams(GlobalParams{4, 1, 6});
        sim.removeRoundObserver(&trace);
    }
    {
        std::ifstream in(path);
        std::string line;
        ASSERT_TRUE(std::getline(in, line));
        util::JsonValue record;
        std::string error;
        ASSERT_TRUE(util::JsonValue::parse(line, record, &error)) << error;
        EXPECT_FALSE(record.has("metrics"));
    }
    std::remove(path.c_str());
}

TEST(Inertness, ProfileMetricsDoNotPerturbFedGpoResults)
{
    // Two identical campaigns, one fully instrumented, one dark: every
    // simulated quantity must match bit-for-bit (the obs layer reads
    // Q-state but never draws randomness or touches modeled math).
    constexpr int kRounds = 4;
    std::vector<RoundResult> off_results, profile_results;
    {
        obs::ScopedLevel scoped(obs::Level::Off);
        FlSimulator sim(tinyConfig());
        core::FedGpo policy;
        for (int r = 0; r < kRounds; ++r)
            off_results.push_back(sim.runRound(policy));
    }
    {
        obs::ScopedLevel scoped(obs::Level::Profile);
        FlSimulator sim(tinyConfig());
        core::FedGpo policy;
        for (int r = 0; r < kRounds; ++r)
            profile_results.push_back(sim.runRound(policy));
        obs::MetricsRegistry::instance().reset();
    }
    for (int r = 0; r < kRounds; ++r) {
        SCOPED_TRACE("round " + std::to_string(r + 1));
        const RoundResult &a = off_results[static_cast<std::size_t>(r)];
        const RoundResult &b = profile_results[static_cast<std::size_t>(r)];
        EXPECT_EQ(a.test_accuracy, b.test_accuracy);
        EXPECT_EQ(a.test_loss, b.test_loss);
        EXPECT_EQ(a.train_loss, b.train_loss);
        EXPECT_EQ(a.round_time, b.round_time);
        EXPECT_EQ(a.energy_total, b.energy_total);
        EXPECT_EQ(a.samples_aggregated, b.samples_aggregated);
        EXPECT_EQ(a.participants.size(), b.participants.size());
    }
}

} // namespace
