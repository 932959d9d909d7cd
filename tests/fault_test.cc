/**
 * @file
 * Tests of the fault-injection subsystem: deterministic draws, thread
 * invariance of faulty rounds, quorum-gated aborts, retry/backoff cost
 * accounting, graceful fleet exhaustion, and the configuration
 * validation added at the simulator boundary.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "device/cost_model.h"
#include "fault/fault_model.h"
#include "fl/round/dispatch.h"
#include "fl/simulator.h"
#include "optim/fixed.h"
#include "runtime/runtime_config.h"
#include "util/logging.h"

using namespace fedgpo;
using namespace fedgpo::fl;
using namespace fedgpo::fl::round;
using fedgpo::fault::FaultConfig;
using fedgpo::fault::FaultDraw;
using fedgpo::fault::FaultModel;

namespace {

FlConfig
faultyConfig(std::size_t threads)
{
    FlConfig config;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;
    config.network_unstable = true;
    config.threads = threads;
    config.faults.offline_rate = 0.2;
    config.faults.crash_rate = 0.2;
    config.faults.upload_failure_rate = 0.3;
    return config;
}

} // namespace

// --- FaultModel draws. --------------------------------------------------

TEST(FaultModel, DrawIsAPureFunctionOfRoundAndClient)
{
    FaultConfig config;
    config.offline_rate = 0.3;
    config.crash_rate = 0.3;
    config.upload_failure_rate = 0.3;
    const FaultModel model(config, 42);

    // Pure: the same (round, client) always yields the same outcome, in
    // any call order, from the same const model.
    const FaultDraw a = model.draw(5, 3);
    model.draw(1, 0); // unrelated draw must not perturb anything
    const FaultDraw b = model.draw(5, 3);
    EXPECT_EQ(a.offline, b.offline);
    EXPECT_EQ(a.crash, b.crash);
    EXPECT_EQ(a.crash_fraction, b.crash_fraction);
    EXPECT_EQ(a.upload_failures, b.upload_failures);

    // Distinct pairs get decorrelated streams: over many pairs the
    // outcomes must not all be equal.
    int offline = 0, crash = 0, failures = 0;
    for (int round = 1; round <= 20; ++round) {
        for (std::size_t client = 0; client < 20; ++client) {
            const FaultDraw d = model.draw(round, client);
            offline += d.offline ? 1 : 0;
            crash += d.crash ? 1 : 0;
            failures += d.upload_failures;
            EXPECT_GE(d.crash_fraction, 0.05);
            EXPECT_LT(d.crash_fraction, 0.95);
        }
    }
    EXPECT_GT(offline, 0);
    EXPECT_LT(offline, 400);
    EXPECT_GT(crash, 0);
    EXPECT_LT(crash, 400);
    EXPECT_GT(failures, 0);
}

TEST(FaultModel, ZeroRatesNeverFault)
{
    const FaultModel model(FaultConfig{}, 7);
    EXPECT_FALSE(model.active());
    for (int round = 1; round <= 10; ++round) {
        for (std::size_t client = 0; client < 10; ++client) {
            const FaultDraw d = model.draw(round, client);
            EXPECT_FALSE(d.offline);
            EXPECT_FALSE(d.crash);
            EXPECT_EQ(d.upload_failures, 0);
        }
    }
}

TEST(FaultModel, BackoffDoublesUntilCap)
{
    FaultConfig config;
    config.backoff_base_s = 0.5;
    config.backoff_cap_s = 3.0;
    EXPECT_DOUBLE_EQ(FaultModel::backoff(config, 0), 0.5);
    EXPECT_DOUBLE_EQ(FaultModel::backoff(config, 1), 1.0);
    EXPECT_DOUBLE_EQ(FaultModel::backoff(config, 2), 2.0);
    EXPECT_DOUBLE_EQ(FaultModel::backoff(config, 3), 3.0); // capped
    EXPECT_DOUBLE_EQ(FaultModel::backoff(config, 9), 3.0);
}

TEST(FaultConfigValidation, RejectsOutOfRangeKnobs)
{
    FaultConfig bad_rate;
    bad_rate.offline_rate = 1.5;
    EXPECT_THROW(bad_rate.validate(), util::FatalError);

    FaultConfig neg_rate;
    neg_rate.crash_rate = -0.1;
    EXPECT_THROW(neg_rate.validate(), util::FatalError);

    FaultConfig neg_retries;
    neg_retries.max_upload_retries = -1;
    EXPECT_THROW(neg_retries.validate(), util::FatalError);

    FaultConfig neg_backoff;
    neg_backoff.backoff_base_s = -1.0;
    EXPECT_THROW(neg_backoff.validate(), util::FatalError);

    // NaN fails every comparison, so it must not pass as in range.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    FaultConfig nan_rate;
    nan_rate.offline_rate = nan;
    EXPECT_THROW(nan_rate.validate(), util::FatalError);

    FaultConfig nan_quorum;
    nan_quorum.quorum_fraction = nan;
    EXPECT_THROW(nan_quorum.validate(), util::FatalError);

    FaultConfig nan_delay;
    nan_delay.reconnect_delay_s = nan;
    EXPECT_THROW(nan_delay.validate(), util::FatalError);

    FaultConfig nan_backoff;
    nan_backoff.backoff_cap_s = nan;
    EXPECT_THROW(nan_backoff.validate(), util::FatalError);

    // +Inf passes a `>= 0` check, but an infinite wait makes the round
    // time inf and then NaN.
    const double inf = std::numeric_limits<double>::infinity();
    FaultConfig inf_delay;
    inf_delay.reconnect_delay_s = inf;
    EXPECT_THROW(inf_delay.validate(), util::FatalError);

    FaultConfig inf_base;
    inf_base.backoff_base_s = inf;
    EXPECT_THROW(inf_base.validate(), util::FatalError);

    FaultConfig inf_cap;
    inf_cap.backoff_cap_s = inf;
    EXPECT_THROW(inf_cap.validate(), util::FatalError);

    // The simulator validates at construction.
    FlConfig config;
    config.n_devices = 4;
    config.train_samples = 48;
    config.test_samples = 16;
    config.faults.upload_failure_rate = 2.0;
    EXPECT_THROW(FlSimulator sim(config), util::FatalError);
}

// --- Thread invariance under faults. ------------------------------------

TEST(FaultDeterminism, FaultyRoundsBitIdenticalAcrossThreadCounts)
{
    FlSimulator serial(faultyConfig(1));
    FlSimulator parallel(faultyConfig(4));
    ASSERT_EQ(serial.threads(), 1u);
    ASSERT_EQ(parallel.threads(), 4u);

    for (int round = 0; round < 3; ++round) {
        const RoundResult a =
            serial.runRoundWithParams(GlobalParams{4, 1, 6});
        const RoundResult b =
            parallel.runRoundWithParams(GlobalParams{4, 1, 6});

        EXPECT_EQ(a.test_accuracy, b.test_accuracy);
        EXPECT_EQ(a.test_loss, b.test_loss);
        EXPECT_EQ(a.train_loss, b.train_loss);
        EXPECT_EQ(a.round_time, b.round_time);
        EXPECT_EQ(a.energy_total, b.energy_total);
        EXPECT_EQ(a.dropped_offline, b.dropped_offline);
        EXPECT_EQ(a.dropped_crashed, b.dropped_crashed);
        EXPECT_EQ(a.dropped_upload, b.dropped_upload);
        EXPECT_EQ(a.upload_retries, b.upload_retries);
        EXPECT_EQ(a.aborted, b.aborted);
        ASSERT_EQ(a.participants.size(), b.participants.size());
        for (std::size_t i = 0; i < a.participants.size(); ++i) {
            const auto &pa = a.participants[i];
            const auto &pb = b.participants[i];
            EXPECT_EQ(pa.client_id, pb.client_id);
            EXPECT_EQ(pa.dropped, pb.dropped);
            EXPECT_EQ(pa.drop_reason, pb.drop_reason);
            EXPECT_EQ(pa.train_loss, pb.train_loss);
            EXPECT_EQ(pa.cost.t_round, pb.cost.t_round);
            EXPECT_EQ(pa.cost.e_total, pb.cost.e_total);
            EXPECT_EQ(pa.update_scale, pb.update_scale);
            EXPECT_EQ(pa.upload_retries, pb.upload_retries);
        }
        // At least one fault process should actually have fired over the
        // run; asserted on the last round's cumulative counters below.
    }
    EXPECT_EQ(serial.globalModel().saveParams(),
              parallel.globalModel().saveParams());
}

// --- Quorum gate. -------------------------------------------------------

TEST(QuorumGate, AbortLeavesGlobalWeightsUntouchedButChargesEnergy)
{
    FlConfig config;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.threads = 1;
    config.faults.crash_rate = 1.0; // every participant dies mid-round
    config.faults.quorum_fraction = 0.5;

    FlSimulator sim(config);
    const std::vector<float> before = sim.globalModel().saveParams();
    const RoundResult r = sim.runRoundWithParams(GlobalParams{4, 1, 6});

    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.samples_aggregated, 0u);
    EXPECT_EQ(r.dropped_crashed, r.participants.size());
    EXPECT_EQ(sim.globalModel().saveParams(), before);
    // The fleet really burned energy before the abort.
    EXPECT_GT(r.energy_total, 0.0);
    for (const auto &p : r.participants) {
        EXPECT_TRUE(p.dropped);
        EXPECT_EQ(p.drop_reason, DropReason::Crashed);
        EXPECT_GT(p.cost.e_total, 0.0);
        EXPECT_GT(p.update_scale, 0.0);
        EXPECT_LT(p.update_scale, 1.0);
    }
}

TEST(QuorumGate, MetQuorumAggregatesNormally)
{
    FlConfig config;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.threads = 1;
    config.faults.crash_rate = 0.05;
    config.faults.quorum_fraction = 0.25;

    FlSimulator sim(config);
    const std::vector<float> before = sim.globalModel().saveParams();
    const RoundResult r = sim.runRoundWithParams(GlobalParams{4, 1, 6});
    EXPECT_FALSE(r.aborted);
    EXPECT_GT(r.samples_aggregated, 0u);
    EXPECT_NE(sim.globalModel().saveParams(), before);
}

// --- Retry/backoff accounting. ------------------------------------------

namespace {

constexpr std::uint64_t kParamBytes = 10000;

/** A kept report on a known network state, for chargeRetries. */
ClientRoundReport
reportWithCost(device::RoundCost base_cost)
{
    ClientRoundReport p;
    p.client_id = 7;
    p.network = device::NetworkState{80.0, 0.8};
    p.cost = base_cost;
    return p;
}

} // namespace

TEST(ChargeRetries, ChargesHandComputedTimeAndEnergy)
{
    FaultConfig config;
    config.max_upload_retries = 3;
    config.backoff_base_s = 0.5;
    config.backoff_cap_s = 8.0;

    device::RoundCost base;
    base.t_comp = 10.0;
    base.t_comm = 2.0;
    base.t_round = 12.0;
    base.e_comp = 30.0;
    base.e_comm = 4.0;
    base.e_total = 34.0;

    // Two transient failures, budget three: two retransmissions, kept.
    const device::WorkloadCost &cost =
        device::costFor(models::Workload::CnnMnist);
    ClientRoundReport p = reportWithCost(base);
    std::vector<FaultEvent> events;
    const RetryCharge charge =
        chargeRetries(config, p, 2, kParamBytes, cost, events);

    const device::TxCost tx = device::uploadCost(cost, kParamBytes, p.network);
    ASSERT_GT(tx.time, 0.0);
    ASSERT_GT(tx.energy, 0.0);

    // Hand-computed: backoffs 0.5 then 1.0, one upload airtime each.
    const double extra_time = (0.5 + tx.time) + (1.0 + tx.time);
    const double extra_energy = 2.0 * tx.energy;
    EXPECT_DOUBLE_EQ(p.cost.t_comm, 2.0 + extra_time);
    EXPECT_DOUBLE_EQ(p.cost.t_round, 12.0 + extra_time);
    EXPECT_DOUBLE_EQ(p.cost.e_comm, 4.0 + extra_energy);
    EXPECT_DOUBLE_EQ(p.cost.e_total, 34.0 + extra_energy);
    EXPECT_FALSE(p.dropped);
    EXPECT_EQ(p.upload_retries, 2);
    EXPECT_EQ(charge.retries, 2);
    EXPECT_FALSE(charge.exhausted);

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, fault::FaultKind::UploadRetry);
    EXPECT_EQ(events[0].attempt, 1);
    EXPECT_DOUBLE_EQ(events[0].backoff_s, 0.5);
    EXPECT_EQ(events[1].attempt, 2);
    EXPECT_DOUBLE_EQ(events[1].backoff_s, 1.0);
}

TEST(ChargeRetries, RetransmitsEncodedPayloadBytes)
{
    // Every retransmission ships the *encoded* payload: the retry
    // airtime shrinks with the codec and the retransmitted bytes land in
    // the client's upload counter.
    FaultConfig config;
    config.max_upload_retries = 3;
    config.backoff_base_s = 0.5;
    config.backoff_cap_s = 8.0;

    device::RoundCost base;
    base.t_comm = 2.0;
    base.t_round = 2.0;
    base.e_comm = 4.0;
    base.e_total = 4.0;

    const device::WorkloadCost &cost =
        device::costFor(models::Workload::CnnMnist);
    ClientRoundReport p = reportWithCost(base);
    const std::uint64_t encoded_bytes = 2516; // e.g. int8: n + scales
    p.bytes_up = encoded_bytes;
    std::vector<FaultEvent> events;
    chargeRetries(config, p, 2, encoded_bytes, cost, events);

    const device::TxCost full =
        device::uploadCost(cost, kParamBytes, p.network);
    const device::TxCost enc = device::uploadCost(
        cost, static_cast<std::size_t>(encoded_bytes), p.network);
    ASSERT_LT(enc.time, full.time);

    // Hand-computed: backoffs 0.5 and 1.0, one *encoded* airtime each.
    EXPECT_DOUBLE_EQ(p.cost.t_comm, 2.0 + (0.5 + enc.time) +
                                        (1.0 + enc.time));
    EXPECT_DOUBLE_EQ(p.cost.e_comm, 4.0 + 2.0 * enc.energy);
    EXPECT_EQ(p.bytes_up, encoded_bytes + 2 * encoded_bytes);
    EXPECT_EQ(p.upload_retries, 2);
}

TEST(ChargeRetries, ExhaustedRetriesDropTheUpdateButKeepTheEnergy)
{
    FaultConfig config;
    config.max_upload_retries = 2;
    config.backoff_base_s = 1.0;
    config.backoff_cap_s = 8.0;

    device::RoundCost base;
    base.t_comm = 2.0;
    base.t_round = 2.0;
    base.e_comm = 4.0;
    base.e_total = 4.0;

    // Three failures against a budget of two: both retries fail too.
    ClientRoundReport p = reportWithCost(base);
    std::vector<FaultEvent> events;
    const RetryCharge charge = chargeRetries(
        config, p, 3, kParamBytes,
        device::costFor(models::Workload::CnnMnist), events);

    EXPECT_TRUE(p.dropped);
    EXPECT_EQ(p.drop_reason, DropReason::UploadFailed);
    EXPECT_EQ(p.upload_retries, 2);
    EXPECT_TRUE(charge.exhausted);
    EXPECT_GT(p.cost.e_total, 4.0); // retry energy stays charged
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events.back().kind, fault::FaultKind::UploadExhausted);
}

TEST(ChargeRetries, NoFaultsIsANoOp)
{
    ClientRoundReport p;
    p.cost.t_round = 5.0;
    std::vector<FaultEvent> events;
    const RetryCharge charge = chargeRetries(
        FaultConfig{}, p, 0, kParamBytes,
        device::costFor(models::Workload::CnnMnist), events);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(charge.retries, 0);
    EXPECT_DOUBLE_EQ(p.cost.t_round, 5.0);
}

// --- Offline replacement and fleet exhaustion. --------------------------

TEST(OfflineFaults, FullyOfflineFleetAbortsGracefully)
{
    FlConfig config;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.threads = 1;
    config.faults.offline_rate = 1.0; // nobody answers, ever

    FlSimulator sim(config);
    const std::vector<float> before = sim.globalModel().saveParams();
    const RoundResult r = sim.runRoundWithParams(GlobalParams{4, 1, 6});

    // Selection drew 6, then replacement exhausted the remaining fleet:
    // every device was tried and found offline.
    EXPECT_EQ(r.dropped_offline, config.n_devices);
    EXPECT_EQ(r.participants.size(), config.n_devices);
    for (const auto &p : r.participants) {
        EXPECT_TRUE(p.dropped);
        EXPECT_EQ(p.drop_reason, DropReason::Offline);
        EXPECT_DOUBLE_EQ(p.cost.e_total, 0.0);
        EXPECT_DOUBLE_EQ(p.update_scale, 0.0);
    }
    EXPECT_EQ(r.samples_aggregated, 0u);
    EXPECT_EQ(sim.globalModel().saveParams(), before);
}

TEST(OfflineFaults, ReplacementsKeepTheRoundPopulated)
{
    FlConfig config;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.threads = 1;
    config.faults.offline_rate = 0.4;

    FlSimulator sim(config);
    bool saw_offline = false;
    for (int round = 0; round < 5; ++round) {
        const RoundResult r = sim.runRoundWithParams(GlobalParams{4, 1, 6});
        if (r.dropped_offline == 0)
            continue;
        saw_offline = true;
        // Every offline drop either found a replacement (participants
        // grew past the requested 6) or the fleet ran out.
        EXPECT_GE(r.participants.size(), 6u);
        std::size_t kept = 0;
        for (const auto &p : r.participants)
            if (!p.dropped)
                ++kept;
        EXPECT_EQ(kept + r.droppedCount(), r.participants.size());
    }
    EXPECT_TRUE(saw_offline);
}

// --- Simulator boundary validation. -------------------------------------

TEST(SimulatorValidation, RejectsNonPositiveBatchAndEpochs)
{
    // Every protocol rejects a non-positive (B, E) through both entry
    // points: a fixed-params round and a policy that assigns it. Each
    // case gets a fresh simulator, so the teardown after the fatal error
    // runs too.
    for (const ProtocolMode mode :
         {ProtocolMode::Sync, ProtocolMode::Async,
          ProtocolMode::Buffered}) {
        for (const GlobalParams &bad :
             {GlobalParams{0, 1, 2}, GlobalParams{4, 0, 2},
              GlobalParams{-4, 1, 2}}) {
            SCOPED_TRACE(std::string(protocolModeName(mode)) + " " +
                         bad.toString());
            FlConfig config;
            config.n_devices = 4;
            config.train_samples = 48;
            config.test_samples = 16;
            config.threads = 2;
            config.protocol.mode = mode;
            {
                FlSimulator sim(config);
                EXPECT_THROW(sim.runRoundWithParams(bad), util::FatalError);
            }
            {
                FlSimulator sim(config);
                optim::FixedOptimizer policy(bad);
                EXPECT_THROW(sim.runRound(policy), util::FatalError);
            }
        }
    }
}

TEST(SimulatorValidation, OversizedCohortClampsToFleet)
{
    FlConfig config;
    config.n_devices = 4;
    config.train_samples = 48;
    config.test_samples = 16;
    config.threads = 1;
    FlSimulator sim(config);
    const RoundResult r = sim.runRoundWithParams(GlobalParams{4, 1, 100});
    EXPECT_EQ(r.participants.size(), 4u);
}

TEST(RuntimeConfig, MalformedThreadsEnvFallsBack)
{
    ::setenv("FEDGPO_THREADS", "not-a-number", 1);
    const std::size_t resolved = runtime::resolveThreads(0);
    ::unsetenv("FEDGPO_THREADS");
    EXPECT_GE(resolved, 1u);
    // An explicit request still wins regardless of the environment.
    EXPECT_EQ(runtime::resolveThreads(3), 3u);
}
