/**
 * @file
 * Tests of the event-driven protocols (src/fl/async/): staleness-weight
 * math, boundary validation at the simulator constructor, protocol
 * behavior under the dispatch-keyed fault processes (churn, duplicates,
 * the staleness bound), every trained dispatch running as one pool task,
 * and bit-exact determinism of the Async and Buffered modes, with and
 * without a lossy codec, across worker-thread counts and LRU residency
 * caps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fl/async/event_pump.h"
#include "fl/async/protocol.h"
#include "fl/simulator.h"
#include "obs/metrics.h"
#include "tensor/kernel_mode.h"
#include "util/logging.h"

using namespace fedgpo;
using namespace fedgpo::fl;

namespace {

// ---- Staleness-weight math. -------------------------------------------

TEST(Staleness, PolynomialMatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(async::stalenessWeight(0), 1.0);
    EXPECT_DOUBLE_EQ(async::stalenessWeight(3), 1.0 / std::pow(4.0, 0.5));
    EXPECT_DOUBLE_EQ(async::stalenessWeight(8), 1.0 / std::pow(9.0, 0.5));
    // Negative tau clamps to 0 rather than amplifying.
    EXPECT_DOUBLE_EQ(async::stalenessWeight(-3), 1.0);
}

TEST(Staleness, EveryPolicyIsMonotoneNonIncreasing)
{
    double prev = 1.0;
    for (int tau = 1; tau <= 64; ++tau) {
        const double w = async::stalenessWeight(tau);
        EXPECT_LE(w, prev) << "tau=" << tau;
        EXPECT_GT(w, 0.0) << "tau=" << tau;
        prev = w;
    }
}

// ---- Simulator-boundary validation. -----------------------------------

FlConfig
asyncConfig(ProtocolMode mode)
{
    FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 10;
    config.train_samples = 200;
    config.test_samples = 64;
    config.seed = 7;
    config.interference = true;
    config.network_unstable = true;
    config.protocol.mode = mode;
    return config;
}

TEST(AsyncValidation, FatalOnBadMix)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.protocol.mix = 0.0;
    EXPECT_THROW(FlSimulator sim(c), util::FatalError);
    c.protocol.mix = 1.5;
    EXPECT_THROW(FlSimulator sim(c), util::FatalError);
    c.protocol.mix = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(FlSimulator sim(c), util::FatalError);
}

TEST(AsyncValidation, FatalOnNegativeMaxStaleness)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.protocol.max_staleness = -1;
    EXPECT_THROW(FlSimulator sim(c), util::FatalError);
}

TEST(AsyncValidation, FatalOnNonPositiveBufferSize)
{
    FlConfig c = asyncConfig(ProtocolMode::Buffered);
    c.protocol.buffer_size = 0;
    EXPECT_THROW(FlSimulator sim(c), util::FatalError);
    c.protocol.buffer_size = -3;
    EXPECT_THROW(FlSimulator sim(c), util::FatalError);
}

TEST(AsyncValidation, OversizedBufferWarnsAndClamps)
{
    // M far above both the fleet and the cohort: construction must
    // succeed (warn+clamp, PR 3/PR 7 style) and the buffer must still
    // flush — an unclamped M could never fill and would abort epochs.
    FlConfig c = asyncConfig(ProtocolMode::Buffered);
    c.protocol.buffer_size = 500;
    FlSimulator sim(c);
    EXPECT_LE(sim.config().protocol.buffer_size, 10);
    const RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 4});
    EXPECT_FALSE(r.aborted);
    EXPECT_GT(r.samples_aggregated, 0u);
    EXPECT_GE(r.model_version, 1u);
}

// ---- Async protocol behavior. -----------------------------------------

TEST(AsyncProtocol, EpochFoldsAndStampsReports)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    FlSimulator sim(c);
    const RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 6});
    EXPECT_EQ(r.protocol, ProtocolMode::Async);
    EXPECT_FALSE(r.aborted);
    // One epoch folds K updates, each bumping the model version.
    EXPECT_EQ(r.model_version, 6u);
    EXPECT_GT(r.round_time, 0.0);
    EXPECT_GT(r.energy_total, 0.0);
    std::size_t folded = 0;
    for (const ClientRoundReport &p : r.participants) {
        if (p.dropped)
            continue;
        ++folded;
        EXPECT_GE(p.dispatch_ts, 0.0);
        EXPECT_GE(p.arrival_ts, p.dispatch_ts);
        EXPECT_GE(p.applied_ts, p.arrival_ts);
        EXPECT_GE(p.staleness, 0);
        EXPECT_GE(p.arrival_rank, 0);
    }
    EXPECT_EQ(folded, 6u);
    // The initial cohort dispatches against one model version, so every
    // fold after the first arrives at least one version stale.
    EXPECT_GE(r.staleness_max, 1);
    EXPECT_GT(r.staleness_mean, 0.0);
}

TEST(AsyncProtocol, VirtualClockAdvancesAcrossEpochs)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    FlSimulator sim(c);
    const RoundResult r1 = sim.runRoundWithParams(GlobalParams{8, 1, 4});
    const RoundResult r2 = sim.runRoundWithParams(GlobalParams{8, 1, 4});
    // Campaign time is continuous: the second epoch starts where the
    // first ended and the model version keeps counting.
    EXPECT_GT(sim.virtualClock().now(), 0.0);
    EXPECT_EQ(r2.model_version, r1.model_version + 4);
    EXPECT_GT(r2.round_time, 0.0);
}

TEST(AsyncProtocol, LearnsOverEpochs)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.protocol.mix = 0.9;
    FlSimulator sim(c);
    double first = 0.0, last = 0.0;
    for (int i = 0; i < 8; ++i) {
        const RoundResult r =
            sim.runRoundWithParams(GlobalParams{8, 5, 6});
        if (i == 0)
            first = r.test_accuracy;
        last = r.test_accuracy;
    }
    EXPECT_GT(last, first) << "async folding must still learn";
    EXPECT_GT(last, 0.5);
}

TEST(AsyncProtocol, StalenessBoundRejectsOldUpdates)
{
    // max_staleness = 0 keeps only updates trained against the current
    // model; with a cohort of 6 dispatched against one version, later
    // arrivals must be rejected as Stale and replacements dispatched.
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.protocol.max_staleness = 0;
    FlSimulator sim(c);
    const RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 6});
    EXPECT_FALSE(r.aborted);
    EXPECT_GT(r.dropped_stale, 0u);
    EXPECT_EQ(r.model_version, 6u);
    std::size_t stale_reports = 0;
    for (const ClientRoundReport &p : r.participants) {
        if (p.drop_reason != DropReason::Stale)
            continue;
        ++stale_reports;
        EXPECT_TRUE(p.dropped);
        // A stale rejection still arrived — and its measured staleness
        // must actually exceed the bound.
        EXPECT_GE(p.arrival_ts, 0.0);
        EXPECT_GT(p.staleness, c.protocol.max_staleness);
        EXPECT_LT(p.applied_ts, 0.0) << "rejected update must not fold";
    }
    EXPECT_EQ(stale_reports, r.dropped_stale);
    // Every folded update obeyed the bound.
    EXPECT_EQ(r.staleness_max, 0);
}

TEST(AsyncProtocol, DuplicateDeliveriesRejectedByEpoch)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.faults.duplicate_rate = 1.0;
    FlSimulator sim(c);
    const RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 5});
    EXPECT_FALSE(r.aborted);
    EXPECT_GT(r.dropped_duplicate, 0u);
    std::size_t dup_reports = 0;
    for (const ClientRoundReport &p : r.participants) {
        if (p.drop_reason != DropReason::Duplicate)
            continue;
        ++dup_reports;
        EXPECT_TRUE(p.dropped);
        EXPECT_GE(p.arrival_ts, 0.0);
        EXPECT_LT(p.applied_ts, 0.0) << "duplicate must not fold twice";
    }
    EXPECT_EQ(dup_reports, r.dropped_duplicate);
    // The duplicates must not have inflated the fold count.
    EXPECT_EQ(r.model_version, 5u);
}

TEST(AsyncProtocol, ChurnProratesAndReconnects)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.faults.churn_rate = 0.5;
    c.faults.reconnect_delay_s = 5.0;
    FlSimulator sim(c);
    std::size_t churned = 0;
    for (int i = 0; i < 4; ++i) {
        const RoundResult r =
            sim.runRoundWithParams(GlobalParams{8, 1, 5});
        EXPECT_FALSE(r.aborted);
        EXPECT_EQ(r.model_version, 5u * static_cast<std::size_t>(i + 1));
        churned += r.dropped_churn;
        for (const ClientRoundReport &p : r.participants) {
            if (p.drop_reason != DropReason::Churned)
                continue;
            // The churned device burned a partial round: some work was
            // done (positive cost) but less than a full round's upload.
            EXPECT_TRUE(p.dropped);
            EXPECT_GT(p.cost.t_round, 0.0);
            EXPECT_GT(p.cost.e_total, 0.0);
            EXPECT_GT(p.update_scale, 0.0);
            EXPECT_LT(p.update_scale, 1.0);
            EXPECT_LT(p.applied_ts, 0.0);
        }
    }
    EXPECT_GT(churned, 0u) << "churn_rate 0.5 over 4 epochs must fire";
}

TEST(AsyncProtocol, UploadRetriesDelayArrival)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.faults.upload_failure_rate = 0.5;
    c.faults.max_upload_retries = 4;
    FlSimulator sim(c);
    std::size_t retries = 0;
    for (int i = 0; i < 3; ++i)
        retries += sim.runRoundWithParams(GlobalParams{8, 1, 5})
                       .upload_retries;
    EXPECT_GT(retries, 0u);
}

TEST(AsyncProtocol, EveryTrainedDispatchIsOnePoolTask)
{
    // Every dispatch that trains — the epoch-start fill and every top-up
    // alike — is one submitted pool task, and every evaluation batch one
    // parallelFor index, so an epoch's pool.tasks delta counts exactly
    // those. Offline picks never train. Fast math stays off so no GEMM
    // fan-out can add tasks of its own.
    const bool fast_math = tensor::fastMath();
    tensor::setFastMath(false);
    {
        obs::ScopedLevel level(obs::Level::Basic);
        FlConfig c = asyncConfig(ProtocolMode::Async);
        c.threads = 4;
        c.faults.churn_rate = 0.2;
        c.faults.offline_rate = 0.2;
        c.faults.reconnect_delay_s = 5.0;
        FlSimulator sim(c);
        const obs::Counter *tasks =
            obs::MetricsRegistry::instance().counter("pool.tasks");
        const std::uint64_t eval_tasks =
            (c.test_samples + kEvalBatch - 1) / kEvalBatch;
        std::uint64_t trained_total = 0;
        std::uint64_t offline = 0;
        for (int epoch = 0; epoch < 3; ++epoch) {
            SCOPED_TRACE("epoch=" + std::to_string(epoch));
            const std::uint64_t tasks_before = tasks->value();
            const std::uint64_t dispatches_before =
                sim.eventPump()->dispatchCount();
            const RoundResult r =
                sim.runRoundWithParams(GlobalParams{8, 1, 4});
            const std::uint64_t trained =
                sim.eventPump()->dispatchCount() - dispatches_before -
                r.dropped_offline;
            EXPECT_EQ(tasks->value() - tasks_before, trained + eval_tasks);
            trained_total += trained;
            offline += r.dropped_offline;
        }
        // Only the first epoch opens with a fill (of K = 4); every other
        // trained dispatch replaced a completed or churned one.
        EXPECT_GT(trained_total, 4u) << "top-ups must have trained";
        EXPECT_GT(offline, 0u) << "offline picks must be exercised";
    }
    tensor::setFastMath(fast_math);
}

// ---- Buffered protocol behavior. --------------------------------------

TEST(BufferedProtocol, FlushesEveryMArrivals)
{
    FlConfig c = asyncConfig(ProtocolMode::Buffered);
    c.protocol.buffer_size = 3;
    FlSimulator sim(c);
    const RoundResult r = sim.runRoundWithParams(GlobalParams{8, 1, 6});
    EXPECT_EQ(r.protocol, ProtocolMode::Buffered);
    EXPECT_FALSE(r.aborted);
    // One epoch ends at the first flush: M arrivals, one version bump.
    EXPECT_EQ(r.model_version, 1u);
    std::size_t folded = 0;
    double flush_ts = -1.0;
    for (const ClientRoundReport &p : r.participants) {
        if (p.dropped)
            continue;
        ++folded;
        EXPECT_GE(p.applied_ts, p.arrival_ts);
        // Every buffered entry folds at the same flush instant.
        if (flush_ts < 0.0)
            flush_ts = p.applied_ts;
        EXPECT_DOUBLE_EQ(p.applied_ts, flush_ts);
    }
    EXPECT_EQ(folded, 3u);
    EXPECT_GT(r.samples_aggregated, 0u);
}

// ---- Determinism across host-side knobs. ------------------------------

struct EpochFingerprint
{
    double accuracy;
    double round_time;
    double energy;
    double staleness_mean;
    std::uint64_t model_version;
    std::size_t dropped;
};

std::vector<EpochFingerprint>
runCampaign(FlConfig config, std::size_t threads, std::size_t lru_cap)
{
    config.threads = threads;
    config.fleet.lru_cap = lru_cap;
    FlSimulator sim(config);
    std::vector<EpochFingerprint> out;
    for (int i = 0; i < 3; ++i) {
        const RoundResult r =
            sim.runRoundWithParams(GlobalParams{8, 2, 5});
        out.push_back({r.test_accuracy, r.round_time, r.energy_total,
                       r.staleness_mean, r.model_version,
                       r.droppedCount()});
    }
    return out;
}

void
expectIdenticalCampaigns(const FlConfig &config)
{
    const auto reference = runCampaign(config, 1, 0);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t cap : {std::size_t{0}, std::size_t{4}}) {
            const auto got = runCampaign(config, threads, cap);
            ASSERT_EQ(got.size(), reference.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " lru_cap=" + std::to_string(cap) +
                             " epoch=" + std::to_string(i));
                EXPECT_DOUBLE_EQ(got[i].accuracy,
                                 reference[i].accuracy);
                EXPECT_DOUBLE_EQ(got[i].round_time,
                                 reference[i].round_time);
                EXPECT_DOUBLE_EQ(got[i].energy, reference[i].energy);
                EXPECT_DOUBLE_EQ(got[i].staleness_mean,
                                 reference[i].staleness_mean);
                EXPECT_EQ(got[i].model_version,
                          reference[i].model_version);
                EXPECT_EQ(got[i].dropped, reference[i].dropped);
            }
        }
    }
}

TEST(AsyncDeterminism, AsyncBitIdenticalAcrossThreadsAndLruCaps)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.faults.churn_rate = 0.2;
    c.faults.duplicate_rate = 0.2;
    c.faults.offline_rate = 0.1;
    c.faults.upload_failure_rate = 0.2;
    c.faults.reconnect_delay_s = 5.0;
    expectIdenticalCampaigns(c);
}

TEST(AsyncDeterminism, BufferedBitIdenticalAcrossThreadsAndLruCaps)
{
    FlConfig c = asyncConfig(ProtocolMode::Buffered);
    c.protocol.buffer_size = 3;
    c.faults.churn_rate = 0.2;
    c.faults.duplicate_rate = 0.2;
    c.faults.offline_rate = 0.1;
    c.faults.upload_failure_rate = 0.2;
    c.faults.reconnect_delay_s = 5.0;
    expectIdenticalCampaigns(c);
}

// A lossy codec encodes at join against the client's sticky residual,
// which LRU cap 4 banks and restores across eviction.
TEST(AsyncDeterminism, AsyncTopKBitIdenticalAcrossThreadsAndLruCaps)
{
    FlConfig c = asyncConfig(ProtocolMode::Async);
    c.comm.codec = comm::Codec::TopK;
    c.faults.churn_rate = 0.2;
    c.faults.duplicate_rate = 0.2;
    c.faults.offline_rate = 0.1;
    c.faults.upload_failure_rate = 0.2;
    c.faults.reconnect_delay_s = 5.0;
    expectIdenticalCampaigns(c);
}

TEST(AsyncDeterminism, BufferedInt8BitIdenticalAcrossThreadsAndLruCaps)
{
    FlConfig c = asyncConfig(ProtocolMode::Buffered);
    c.comm.codec = comm::Codec::Int8Quant;
    c.protocol.buffer_size = 3;
    c.faults.churn_rate = 0.2;
    c.faults.duplicate_rate = 0.2;
    c.faults.offline_rate = 0.1;
    c.faults.upload_failure_rate = 0.2;
    c.faults.reconnect_delay_s = 5.0;
    expectIdenticalCampaigns(c);
}

} // namespace
