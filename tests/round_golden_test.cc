/**
 * @file
 * Golden determinism test of the round pipeline: with flat FedAvg and
 * the deadline drop, every RoundResult must be bit-identical to the
 * pre-engine monolithic round loop. The
 * literals below were captured (as C99 hexfloats, so they round-trip
 * exactly) from the commit immediately before the RoundEngine refactor,
 * for all three workloads over five rounds.
 *
 * Any change to these numbers is a behavior change of the simulator
 * itself — not a refactor — and must be made deliberately, re-capturing
 * the goldens in the same commit.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fedgpo.h"
#include "fl/round/trace_writer.h"
#include "fl/simulator.h"
#include "obs/metrics.h"
#include "obs/tracing/trace.h"

using namespace fedgpo;
using namespace fedgpo::fl;

namespace {

struct GoldenRound
{
    double test_accuracy;
    double test_loss;
    double train_loss;
    double round_time;
    double energy_participants;
    double energy_idle;
    double energy_total;
    std::size_t dropped;
    std::size_t samples_aggregated;
};

// Capture config: 8 devices, 96/32 train/test samples, seed 11, both
// variance processes on, deadline_factor 2.0, five rounds of
// (B=4, E=1, K=6).
FlConfig
goldenConfig(models::Workload workload, std::size_t threads)
{
    FlConfig config;
    config.workload = workload;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;
    config.network_unstable = true;
    config.deadline_factor = 2.0;
    config.threads = threads;
    return config;
}

constexpr GoldenRound kCnnMnist[] = {
    {0x1p-5, 0x1.473eaef814386p+1, 0x1.cc53f0ff051fp+1, 0x1.c3fb2e8db2ecep+2,
     0x1.a21c5894d77bap+6, 0x1.c3fb2e8db2ecep+1, 0x1.b03c32094513p+6, 0u,
     72u},
    {0x0p+0, 0x1.2d8658b7bb917p+1, 0x1.61dadd1cef169p+1, 0x1.6c188f6620a8ap+5,
     0x1.c8da96cf63e2p+9, 0x1.90816a89f0b98p+4, 0x1.d55ea223b367dp+9, 2u,
     48u},
    {0x0p+0, 0x1.31b689e2f5dacp+1, 0x1.38bcf0a0d0217p+1, 0x1.d1cc66b4d59fap+3,
     0x1.f8ad8619faf94p+7, 0x1.a337f60926a94p+2, 0x1.02e3a2e522174p+8, 1u,
     60u},
    {0x1p-4, 0x1.238ce22e50a94p+1, 0x1.3bd4cc38f0e78p+1, 0x1.0463f2799625ap+4,
     0x1.20a98e8d37203p+8, 0x1.0463f2799625ap+3, 0x1.28ccae2103d16p+8, 1u,
     60u},
    {0x1p-3, 0x1.22866796d6698p+1, 0x1.3173643deebbfp+1, 0x1.249d123cf55b9p+3,
     0x1.1874cfebfca3cp+7, 0x1.41dffa764117ep+2, 0x1.2283cfbfaeac8p+7, 0u,
     72u},
};

constexpr GoldenRound kLstmShakespeare[] = {
    {0x1.4p-3, 0x1.9a363fb3d6c22p+1, 0x1.9a8d1ebe853e1p+1,
     0x1.7dca7cb14b8eep+2, 0x1.91013651e8ef5p+6, 0x1.7dca7cb14b8eep+1,
     0x1.9cef8a37734bcp+6, 0u, 72u},
    {0x1.4p-3, 0x1.8426deacc1015p+1, 0x1.7abe6459b42c3p+1,
     0x1.b1e2093440faap+4, 0x1.124c820bb901cp+9, 0x1.dd457086477a1p+3,
     0x1.19c197cdd21fbp+9, 2u, 48u},
    {0x1.4p-3, 0x1.81a6a4be88a96p+1, 0x1.7bcbcba699a44p+1,
     0x1.380f7dc42381ap+3, 0x1.63f2b5530516ap+7, 0x1.18dabdfd5327ep+2,
     0x1.6cb98b42efafep+7, 1u, 60u},
    {0x1.cp-3, 0x1.860835bbc3cadp+1, 0x1.75c687c258433p+1,
     0x1.7df419d6f4bd4p+3, 0x1.ba1808e9f1c83p+7, 0x1.7df419d6f4bd4p+2,
     0x1.c607a9b8a96e2p+7, 1u, 60u},
    {0x1.4p-3, 0x1.80fd3324238c6p+1, 0x1.6719ee4fcac38p+1,
     0x1.bae29e46f8f7ep+2, 0x1.d9f03a8d2267cp+6, 0x1.e72c7ae7ab771p+1,
     0x1.e9299e645fc38p+6, 0u, 72u},
};

constexpr GoldenRound kMobileNetImageNet[] = {
    {0x1p-5, 0x1.01dfa5fc98026p+2, 0x1.51da1fbbd7b04p+2,
     0x1.fcb4ffbb4f23p+2, 0x1.de0ce519304b9p+6, 0x1.fcb4ffbb4f23p+1,
     0x1.edf28d170ac4ap+6, 0u, 72u},
    {0x1p-5, 0x1.ef2af59401e03p+1, 0x1.039316cb9dcfp+2,
     0x1.897eebd8465b8p+5, 0x1.ee1d0b83be07cp+9, 0x1.b0d869d44d64ap+4,
     0x1.fba3ced26072ep+9, 2u, 48u},
    {0x0p+0, 0x1.01df5365db009p+2, 0x1.e1d224fbf8a56p+1,
     0x1.02440543d1284p+4, 0x1.191445cda37ddp+8, 0x1.d0e0d646dee21p+2,
     0x1.2057c926bef96p+8, 1u, 60u},
    {0x1p-5, 0x1.cabb122b1c8c2p+1, 0x1.d50ebe80c9b36p+1,
     0x1.24a0ea4cefeap+4, 0x1.45b4b9e13d3bcp+8, 0x1.24a0ea4cefeap+3,
     0x1.4ed9c133a4bb1p+8, 1u, 60u},
    {0x1p-5, 0x1.ca208af859919p+1, 0x1.b74aeb1eff86dp+1,
     0x1.4514f6a49fbaep+3, 0x1.3b84e456c3d16p+7, 0x1.65970f4eafb4p+2,
     0x1.46b19cd1394fp+7, 0u, 72u},
};

struct GoldenCase
{
    const char *name;
    models::Workload workload;
    const GoldenRound *rounds;
};

constexpr GoldenCase kCases[] = {
    {"CnnMnist", models::Workload::CnnMnist, kCnnMnist},
    {"LstmShakespeare", models::Workload::LstmShakespeare,
     kLstmShakespeare},
    {"MobileNetImageNet", models::Workload::MobileNetImageNet,
     kMobileNetImageNet},
};

constexpr int kRounds = 5;

void
expectGoldenTrace(std::size_t threads, const GoldenCase &golden_case,
                  const comm::CommConfig *comm_config = nullptr)
{
    FlConfig config = goldenConfig(golden_case.workload, threads);
    if (comm_config != nullptr)
        config.comm = *comm_config;
    FlSimulator sim(config);
    for (int r = 0; r < kRounds; ++r) {
        SCOPED_TRACE(std::string(golden_case.name) + " round " +
                     std::to_string(r + 1));
        const GoldenRound &g = golden_case.rounds[r];
        RoundResult result = sim.runRoundWithParams(GlobalParams{4, 1, 6});

        // Exact equality throughout: the refactor (and any thread count)
        // must not perturb a single bit of the simulated trace.
        EXPECT_EQ(result.test_accuracy, g.test_accuracy);
        EXPECT_EQ(result.test_loss, g.test_loss);
        EXPECT_EQ(result.train_loss, g.train_loss);
        EXPECT_EQ(result.round_time, g.round_time);
        EXPECT_EQ(result.energy_participants, g.energy_participants);
        EXPECT_EQ(result.energy_idle, g.energy_idle);
        EXPECT_EQ(result.energy_total, g.energy_total);
        EXPECT_EQ(result.dropped_straggler, g.dropped);
        EXPECT_EQ(result.dropped_diverged, 0u);
        EXPECT_EQ(result.samples_aggregated, g.samples_aggregated);
    }
}

} // namespace

class RoundGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, GoldenCase>>
{
};

TEST_P(RoundGoldenTest, BitIdenticalToPreEngineTrace)
{
    const auto [threads, golden_case] = GetParam();
    expectGoldenTrace(threads, golden_case);
}

TEST_P(RoundGoldenTest, BitIdenticalWithExplicitIdentityCodec)
{
    // The codec subsystem's inertness guarantee: an explicitly configured
    // Identity codec — even with non-default knobs for the *other* codec
    // levels — must replay the pre-codec goldens bit-for-bit at any
    // thread count (the Encode stage takes its early-out before any
    // delta arithmetic or RNG stream exists).
    const auto [threads, golden_case] = GetParam();
    comm::CommConfig comm_config;
    comm_config.codec = comm::Codec::Identity;
    comm_config.topk_fraction = 0.5;
    comm_config.quant_chunk = 32;
    expectGoldenTrace(threads, golden_case, &comm_config);
}

TEST_P(RoundGoldenTest, BitIdenticalUnderProfileMetrics)
{
    // The inertness guarantee of src/obs: full instrumentation (span
    // timers, pool histograms, stage counters) must not move a single
    // bit of the simulated trace, at any thread count.
    const auto [threads, golden_case] = GetParam();
    obs::ScopedLevel scoped(obs::Level::Profile);
    expectGoldenTrace(threads, golden_case);
    obs::MetricsRegistry::instance().reset();
}

TEST_P(RoundGoldenTest, BitIdenticalUnderOffTracing)
{
    // FEDGPO_TRACE=off must be provably inert: with the mode pinned off
    // (overriding any environment), the goldens replay byte-identically
    // and not a single trace event is recorded.
    const auto [threads, golden_case] = GetParam();
    obs::tracing::ScopedMode scoped(obs::tracing::Mode::Off);
    const std::uint64_t recorded_before =
        obs::tracing::Tracer::instance().recordedEvents();
    expectGoldenTrace(threads, golden_case);
    EXPECT_EQ(obs::tracing::Tracer::instance().recordedEvents(),
              recorded_before);
}

TEST_P(RoundGoldenTest, BitIdenticalUnderFullTracing)
{
    // The causal tracer's inertness guarantee: full dispatch tracing
    // (Select/Train/Encode/Arrival/Fold events plus stage spans, with
    // the per-round drain) must not move a single bit of the simulated
    // trace, at any thread count.
    const auto [threads, golden_case] = GetParam();
    obs::tracing::ScopedMode scoped(obs::tracing::Mode::Full);
    expectGoldenTrace(threads, golden_case);
    EXPECT_GT(obs::tracing::Tracer::instance().recordedEvents(), 0u);
    obs::tracing::Tracer::instance().reset();
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndParallel, RoundGoldenTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::ValuesIn(kCases)),
    [](const ::testing::TestParamInfo<RoundGoldenTest::ParamType> &info) {
        return std::string(std::get<1>(info.param).name) + "_threads" +
               std::to_string(std::get<0>(info.param));
    });

// ---- DispatchGolden: the paths the fault-free Identity goldens miss. ----
//
// Sync crash, retry and offline handling, every codec's encode, and every
// Async fold and Buffered flush, pinned as C99 hexfloats plus FNV-1a
// hashes. Captured before RoundEngine and EventPump shared one
// per-dispatch step, so the shared step must reproduce both schedulers'
// former private copies bit for bit. The Sync Int8 campaigns, folded
// flat, were captured while the hierarchical fold they replace still
// existed.

namespace {

/** One round or epoch of a DispatchGolden campaign, every modeled field. */
struct DispatchRound
{
    double test_accuracy;
    double test_loss;
    double train_loss;
    double round_time;
    double energy_participants;
    double energy_idle;
    double energy_total;
    std::size_t dropped_straggler;
    std::size_t dropped_diverged;
    std::size_t dropped_offline;
    std::size_t dropped_crashed;
    std::size_t dropped_upload;
    std::size_t dropped_churn;
    std::size_t dropped_stale;
    std::size_t dropped_duplicate;
    std::size_t samples_aggregated;
    std::uint64_t bytes_up_total;
    std::uint64_t bytes_down_total;
    std::size_t upload_retries;
    std::uint64_t model_version;
    double staleness_mean;
    int staleness_max;
    std::uint64_t reports; //!< FNV-1a over every client report's outcome
};

/** 64-bit FNV-1a over the bytes of a sequence of scalars. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    template <typename T>
    void
    add(T v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
};

enum class Campaign
{
    SyncTopK,
    SyncInt8,
    AsyncIdentity,
    AsyncTopK,
    BufferedInt8,
};

// Capture config: 12 devices, 144/32 train/test samples, seed 11, both
// variance processes on, deadline_factor 2.0, plus each campaign's
// protocol, codec and fault mix.
FlConfig
dispatchConfig(models::Workload workload, Campaign campaign,
               std::size_t threads)
{
    FlConfig config;
    config.workload = workload;
    config.n_devices = 12;
    config.train_samples = 144;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;
    config.network_unstable = true;
    config.deadline_factor = 2.0;
    config.threads = threads;
    switch (campaign) {
      case Campaign::SyncTopK:
        config.comm.codec = comm::Codec::TopK;
        config.faults.offline_rate = 0.15;
        config.faults.crash_rate = 0.2;
        config.faults.upload_failure_rate = 0.4;
        break;
      case Campaign::SyncInt8:
        config.comm.codec = comm::Codec::Int8Quant;
        config.faults.quorum_fraction = 0.5;
        config.faults.offline_rate = 0.1;
        config.faults.crash_rate = 0.2;
        config.faults.upload_failure_rate = 0.4;
        break;
      case Campaign::AsyncIdentity:
      case Campaign::AsyncTopK:
      case Campaign::BufferedInt8:
        if (campaign == Campaign::BufferedInt8) {
            config.protocol.mode = ProtocolMode::Buffered;
            config.protocol.buffer_size = 3;
            config.protocol.staleness = async::StalenessKind::Polynomial;
            config.comm.codec = comm::Codec::Int8Quant;
        } else {
            config.protocol.mode = ProtocolMode::Async;
            config.protocol.mix = 0.6;
            if (campaign == Campaign::AsyncTopK)
                config.comm.codec = comm::Codec::TopK;
        }
        config.faults.churn_rate = 0.2;
        config.faults.duplicate_rate = 0.2;
        config.faults.offline_rate = 0.1;
        config.faults.upload_failure_rate = 0.3;
        config.faults.reconnect_delay_s = 5.0;
        break;
    }
    return config;
}

bool
isSync(Campaign campaign)
{
    return campaign == Campaign::SyncTopK || campaign == Campaign::SyncInt8;
}

/** Run one campaign; returns its rounds and the final-weights hash. */
std::vector<DispatchRound>
runDispatchCampaign(models::Workload workload, Campaign campaign,
                    std::size_t threads, std::uint64_t &params_hash)
{
    FlSimulator sim(dispatchConfig(workload, campaign, threads));
    const GlobalParams params =
        campaign == Campaign::SyncTopK ? GlobalParams{4, 1, 6}
        : campaign == Campaign::SyncInt8 ? GlobalParams{4, 1, 8}
            : GlobalParams{8, 1, 5};
    const int rounds = isSync(campaign) ? 5 : 4;
    std::vector<DispatchRound> out;
    for (int r = 0; r < rounds; ++r) {
        const RoundResult res = sim.runRoundWithParams(params);
        Fnv1a reports;
        for (const ClientRoundReport &p : res.participants) {
            reports.add(static_cast<std::uint64_t>(p.client_id));
            reports.add(static_cast<std::int64_t>(p.drop_reason));
            reports.add(p.update_scale);
            reports.add(p.cost.e_total);
            reports.add(p.cost.t_round);
            reports.add(p.bytes_up);
            reports.add(p.arrival_ts);
            reports.add(p.applied_ts);
            reports.add(static_cast<std::int64_t>(p.staleness));
            reports.add(p.train_loss);
        }
        out.push_back({res.test_accuracy, res.test_loss, res.train_loss,
                       res.round_time, res.energy_participants,
                       res.energy_idle, res.energy_total,
                       res.dropped_straggler, res.dropped_diverged,
                       res.dropped_offline, res.dropped_crashed,
                       res.dropped_upload, res.dropped_churn,
                       res.dropped_stale, res.dropped_duplicate,
                       res.samples_aggregated, res.bytes_up_total,
                       res.bytes_down_total, res.upload_retries,
                       res.model_version, res.staleness_mean,
                       res.staleness_max, reports.h});
    }
    Fnv1a weights;
    for (float w : sim.globalModel().saveParams())
        weights.add(w);
    params_hash = weights.h;
    return out;
}

constexpr DispatchRound kCnnSyncTopK[] = {
    {0x1.8p-4, 0x1.39504e115ed7cp+1, 0x1.be43f94afbdb8p+1,
     0x1.a749758503d8p+2, 0x1.e888756a6e02p+6, 0x1.fbf1c03937dp+2,
     0x1.0423c8b700bf8p+7, 0u, 0u, 1u, 0u, 1u, 0u, 0u, 0u, 60u,
     86328u, 235248u, 5u, 0u, 0x0p+0, 0,
     0xd8e69989f53f5a2cULL},
    {0x1.8p-4, 0x1.4553643823a9dp+1, 0x1.7216db470ccd7p+1,
     0x1.da6fa624241f9p+3, 0x1.210e9f494be89p+8, 0x1.c2b6ddd588b7ap+3,
     0x1.2f245637f82e5p+8, 1u, 0u, 2u, 2u, 0u, 0u, 0u, 0u, 36u,
     47088u, 235248u, 2u, 0u, 0x0p+0, 0,
     0x4b190036965541edULL},
    {0x1.8p-4, 0x1.30f52ec9ce086p+1, 0x1.5414731015d03p+1,
     0x1.52d3bc04c0a0fp+4, 0x1.507eebef7d8cp+8, 0x1.fc3d9a0720f17p+4,
     0x1.7042c58fef9b1p+8, 1u, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 48u,
     54936u, 235248u, 2u, 0u, 0x0p+0, 0,
     0x5639e59a885b4edcULL},
    {0x1.4p-3, 0x1.28647e25172ap+1, 0x1.37aa77b7f39fep+1,
     0x1.dbe81f61e3435p+3, 0x1.d39166a421c55p+7, 0x1.64ee17896a728p+4,
     0x1.001794caa789dp+8, 1u, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 48u,
     62784u, 235248u, 3u, 0u, 0x0p+0, 0,
     0x929be8093ec58f75ULL},
    {0x1p-4, 0x1.38dd7bedccb3ap+1, 0x1.3152b78835e88p+1,
     0x1.0f611b3948164p+3, 0x1.15f6ea7a1cfa1p+7, 0x1.2a846abf027eep+3,
     0x1.289f31260d22p+7, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 0u, 72u,
     78480u, 235248u, 4u, 0u, 0x0p+0, 0,
     0x593c9711fa96af2eULL},
};

constexpr DispatchRound kCnnSyncInt8[] = {
    {0x1p-3, 0x1.3511ca6f1160ep+1, 0x1.bf98be2faa4d5p+1,
     0x1.b320682154405p+2, 0x1.23a57aef93f62p+7, 0x1.3096af4a87c6ap+2,
     0x1.2d2a3069e8345p+7, 0u, 0u, 1u, 1u, 1u, 0u, 0u, 0u, 72u,
     129454u, 313664u, 6u, 0u, 0x0p+0, 0,
     0xf1ef2448bc695d20ULL},
    {0x1.4p-3, 0x1.27e53b242fcfdp+1, 0x1.51ec95e173fcap+1,
     0x1.e895647d3ee08p+3, 0x1.886c69cd63359p+8, 0x1.e895647d3ee08p+2,
     0x1.900ebf5f58311p+8, 1u, 0u, 2u, 2u, 0u, 0u, 0u, 0u, 60u,
     99580u, 313664u, 4u, 0u, 0x0p+0, 0,
     0x12dc6b5cb0620616ULL},
    {0x1p-3, 0x1.28ee1f1af9a52p+1, 0x1.38ab25100ce23p+1,
     0x1.1b31b0554cb4ep+4, 0x1.66dda3a45cc27p+8, 0x1.0d08cdeaa278ap+4,
     0x1.77ae308306eap+8, 2u, 0u, 0u, 2u, 0u, 0u, 0u, 0u, 48u,
     99580u, 313664u, 4u, 0u, 0x0p+0, 0,
     0x9def741d0e769afdULL},
    {0x1.8p-3, 0x1.2ae3f286ffa8fp+1, 0x1.2c825c460426cp+1,
     0x1.f8aa9e87cce27p+3, 0x1.47d4da6d9affdp+8, 0x1.c633284705324p+3,
     0x1.560673afd3296p+8, 1u, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 72u,
     139412u, 313664u, 7u, 0u, 0x0p+0, 0,
     0xd15e572e3cff75c9ULL},
    {0x1.8p-4, 0x1.29ed8bd45f3f8p+1, 0x1.295480cf9c206p+1,
     0x1.46ee5a9578636p+3, 0x1.972b1a732283ep+7, 0x1.a902a8f582e7ap+2,
     0x1.a4732fbace9b2p+7, 1u, 0u, 1u, 1u, 0u, 0u, 0u, 0u, 72u,
     129454u, 313664u, 6u, 0u, 0x0p+0, 0,
     0xc4b6c57a795312d8ULL},
};

constexpr DispatchRound kCnnAsyncIdentity[] = {
    {0x1.4p-3, 0x1.386f770f4795bp+1, 0x1.cd769e58fd70ep+1,
     0x1.1a90a7a210e71p+3, 0x1.29de59c8dc966p+6, 0x1.36d251ff1297cp+2,
     0x1.3d4b7ee8cdbfep+6, 0u, 0u, 0u, 0u, 0u, 1u, 0u, 0u, 60u,
     196040u, 235248u, 2u, 5u, 0x1.ccccccccccccdp+0, 4,
     0x8b50e1ea9ca7495fULL},
    {0x1.4p-3, 0x1.29e2e4cbf1c29p+1, 0x1.90f96192303ecp+1,
     0x1.15912e8ad3927p+3, 0x1.721d322e2c6ddp+6, 0x1.f39eed6049a13p+1,
     0x1.81ba29992ebaep+6, 0u, 0u, 1u, 0u, 0u, 1u, 0u, 1u, 60u,
     274456u, 235248u, 2u, 10u, 0x1p+2, 6,
     0x407d2b3575841010ULL},
    {0x1p-5, 0x1.30ee5e727d736p+1, 0x1.624a352361ff2p+1,
     0x1.544e87c63d97p+3, 0x1.79f5b73b3e948p+6, 0x1.dc6df148bca04p+2,
     0x1.97bc964fca5e8p+6, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 5u, 60u,
     313664u, 196040u, 2u, 15u, 0x1.6666666666666p+1, 5,
     0x4b21b8a5cece8bffULL},
    {0x1.8p-3, 0x1.28ac16a682245p+1, 0x1.438c31ac08f21p+1,
     0x1.c60c45676e54p+3, 0x1.7301eb296f7fap+6, 0x1.272193833ae9dp+3,
     0x1.97e61d99d6dcep+6, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 1u, 60u,
     235248u, 196040u, 0u, 20u, 0x1p+1, 3,
     0x485e83c4e05327c0ULL},
};

constexpr DispatchRound kCnnAsyncTopK[] = {
    {0x1.4p-3, 0x1.354e9ee04750bp+1, 0x1.d13e1f33a91fp+1,
     0x1.8529ab7fc4652p+2, 0x1.c118fe7497735p+5, 0x1.ac143ca624d5ap+1,
     0x1.dbda423ef9c0bp+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 60u,
     39240u, 196040u, 2u, 5u, 0x1.ccccccccccccdp+0, 4,
     0x22074cc6868b2f4fULL},
    {0x1.4p-3, 0x1.2e1f5d12cf511p+1, 0x1.8e32756558392p+1,
     0x1.52a0a6fcda702p+2, 0x1.f61f2b88c2481p+5, 0x1.30c3c97d2afe8p+1,
     0x1.0495b4104a7cp+6, 0u, 0u, 1u, 0u, 0u, 1u, 0u, 2u, 60u,
     54936u, 235248u, 0u, 10u, 0x1.ccccccccccccdp+1, 5,
     0xa93f79323e3bdc20ULL},
    {0x1.8p-3, 0x1.28a05e3d1ebb4p+1, 0x1.4d60f1255c622p+1,
     0x1.ab574576dda18p+2, 0x1.ca046754dc3a9p+5, 0x1.15c586c07675cp+2,
     0x1.ecbd182ceb094p+5, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 1u, 60u,
     47088u, 196040u, 1u, 15u, 0x1.199999999999ap+1, 3,
     0x77d7e87d5e461345ULL},
    {0x1p-3, 0x1.307a59fc800ddp+1, 0x1.532338a3d14b5p+1,
     0x1.7c7e2cf1abceap+3, 0x1.1b12b1ed97a99p+7, 0x1.eea4073a2c264p+2,
     0x1.2a87d227690acp+7, 0u, 0u, 0u, 0u, 0u, 1u, 0u, 1u, 60u,
     39240u, 235248u, 0u, 20u, 0x1.6666666666666p+0, 2,
     0xdd0e014c439b01b2ULL},
};

constexpr DispatchRound kCnnBufferedInt8[] = {
    {0x1p-4, 0x1.390cea61d28c8p+1, 0x1.cb552c8682adp+1,
     0x1.41d97528c75cep+2, 0x1.ead29ce152004p+4, 0x1.31c1c8e6bd65p+2,
     0x1.1ba1878d80accp+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 36u,
     29874u, 117624u, 1u, 1u, 0x0p+0, 0,
     0xc74918204741a169ULL},
    {0x1.4p-3, 0x1.4419cec36b37cp+1, 0x1.c0fb5f95220b5p+1,
     0x1.6b082f54bc34p+0, 0x1.5f72d59d500bdp+5, 0x1.d7f10a548e43ap+0,
     0x1.6e325deff47dfp+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 36u,
     39832u, 117624u, 1u, 2u, 0x1p+0, 1,
     0xfbd8db75865ad71dULL},
    {0x1.4p-3, 0x1.2aee0d645e1efp+1, 0x1.a949e2444c2dcp+1,
     0x1.7308244f23adep+2, 0x1.12e81b62c17afp+5, 0x1.4dedba4739b62p+1,
     0x1.27c6f70735165p+5, 0u, 0u, 1u, 0u, 0u, 1u, 0u, 2u, 36u,
     39832u, 156832u, 0u, 3u, 0x1p+0, 2,
     0x66fb62d79d0dc51cULL},
    {0x1.8p-4, 0x1.30f71e8b24d7fp+1, 0x1.47a0e7e6bea77p+1,
     0x1.1b9a7b9b97d04p+2, 0x1.f7299fc520bfep+4, 0x1.0d6c5bd3d039p+2,
     0x1.1d425b5d0a671p+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 36u,
     29874u, 117624u, 1u, 4u, 0x1.5555555555555p-1, 1,
     0x643fe4c8b3c52586ULL},
};

constexpr DispatchRound kLstmSyncTopK[] = {
    {0x1.4p-3, 0x1.8dadc1eebad7ep+1, 0x1.a89388d5a8253p+1,
     0x1.41b448cc127c6p+2, 0x1.7a6d1cf0ac804p+6, 0x1.820b8a8e7c954p+2,
     0x1.928dd59994499p+6, 0u, 0u, 1u, 0u, 1u, 0u, 0u, 0u, 60u,
     76912u, 209568u, 5u, 0u, 0x0p+0, 0,
     0x94edfe9f7a7b8eb0ULL},
    {0x1.4p-3, 0x1.882dfb04abc4cp+1, 0x1.a1942c28c9228p+1,
     0x1.56f0cd6b5fdbp+3, 0x1.8bb9c1437206ep+7, 0x1.45cb298c67dcep+3,
     0x1.a01673dc3884bp+7, 1u, 0u, 2u, 2u, 0u, 0u, 0u, 0u, 36u,
     41952u, 209568u, 2u, 0u, 0x0p+0, 0,
     0x5daff73d011ca8c3ULL},
    {0x1.8p-3, 0x1.74eb62978114dp+1, 0x1.7cf13ce389b01p+1,
     0x1.f95df56377ecap+3, 0x1.f53c6f099faf8p+7, 0x1.7b06780a99f17p+4,
     0x1.124e9f057976dp+8, 1u, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 48u,
     48944u, 209568u, 2u, 0u, 0x0p+0, 0,
     0x6950e5e2218d7a7fULL},
    {0x1.4p-3, 0x1.722e82c8373d4p+1, 0x1.83172d4a21d6bp+1,
     0x1.3489f16c06299p+3, 0x1.3ad83786c819p+7, 0x1.ceceea22093e5p+3,
     0x1.57c52628e8acep+7, 1u, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 48u,
     55936u, 209568u, 3u, 0u, 0x0p+0, 0,
     0x8d03caad04614a29ULL},
    {0x1p-3, 0x1.70391cf24f0a9p+1, 0x1.7803c000ebd31p+1,
     0x1.bf9f2103d881fp+2, 0x1.e080adfc87e84p+6, 0x1.ec623deaa15bcp+2,
     0x1.ff46d1db31fep+6, 1u, 0u, 1u, 0u, 0u, 0u, 0u, 0u, 60u,
     69920u, 209568u, 4u, 0u, 0x0p+0, 0,
     0xef7ad744e066323dULL},
};

constexpr DispatchRound kLstmSyncInt8[] = {
    {0x1.4p-3, 0x1.90815eb9d0217p+1, 0x1.a8025cebd1b49p+1,
     0x1.484c22670ff1fp+2, 0x1.c392612cd321p+6, 0x1.cb9dc9c37cb92p+1,
     0x1.d1ef4f7aef06dp+6, 0u, 0u, 1u, 1u, 1u, 0u, 0u, 0u, 72u,
     115336u, 279424u, 6u, 0u, 0x0p+0, 0,
     0x9dbc4a570d4c26b5ULL},
    {0x1.4p-3, 0x1.859266c2065c3p+1, 0x1.9d677fb9620ap+1,
     0x1.5ed1a66ee3d5ap+3, 0x1.0f352016d547ap+8, 0x1.5ed1a66ee3d5ap+2,
     0x1.14b066b090d6fp+8, 1u, 0u, 2u, 2u, 0u, 0u, 0u, 0u, 60u,
     88720u, 279424u, 4u, 0u, 0x0p+0, 0,
     0xbed2e91b55324f1fULL},
    {0x1.4p-3, 0x1.79e9d22be88a1p+1, 0x1.8d668bea6cfe8p+1,
     0x1.9f5a318eeabddp+3, 0x1.0ae6d5c59a368p+8, 0x1.8a95af1492346p+3,
     0x1.173b833e3ec82p+8, 2u, 0u, 0u, 2u, 0u, 0u, 0u, 0u, 48u,
     88720u, 279424u, 4u, 0u, 0x0p+0, 0,
     0xe13e5fba98e01861ULL},
    {0x1p-4, 0x1.780d2bdd092d4p+1, 0x1.8dfa6eef3afb6p+1,
     0x1.4f7e90fda01dbp+3, 0x1.c7c5a716ed42ep+7, 0x1.2df1e8e4434dfp+3,
     0x1.daa4c5a53177cp+7, 2u, 0u, 0u, 1u, 0u, 0u, 0u, 0u, 60u,
     124208u, 279424u, 7u, 0u, 0x0p+0, 0,
     0x457adaf0172f1355ULL},
    {0x1p-3, 0x1.712eea7edfb1cp+1, 0x1.73ad8f722b862p+1,
     0x1.d7e0774b8ea04p+2, 0x1.3502da34a9742p+7, 0x1.32b84d8ab64e9p+2,
     0x1.3e989ca0ff269p+7, 2u, 0u, 1u, 1u, 0u, 0u, 0u, 0u, 60u,
     115336u, 279424u, 6u, 0u, 0x0p+0, 0,
     0x8ae23165e0589fa2ULL},
};

constexpr DispatchRound kLstmAsyncIdentity[] = {
    {0x1.4p-3, 0x1.8d0d95d3181a8p+1, 0x1.9dbc7881a16f6p+1,
     0x1.7e3dfc0d17eb6p+2, 0x1.c37b4d60b77cep+5, 0x1.a477620e671c8p+1,
     0x1.ddc2c3819deeap+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 60u,
     174640u, 174640u, 2u, 5u, 0x1.ccccccccccccdp+0, 4,
     0x9979ffcdb46c3f94ULL},
    {0x1.4p-3, 0x1.7e9decc53e625p+1, 0x1.916a8f30b72d2p+1,
     0x1.661887704e4e2p+2, 0x1.04587735311dcp+6, 0x1.424946b1e0132p+1,
     0x1.0e6ac16ac01e6p+6, 0u, 0u, 1u, 0u, 0u, 1u, 0u, 1u, 60u,
     209568u, 209568u, 0u, 10u, 0x1.999999999999ap+1, 5,
     0xb8fd2150a91dc110ULL},
    {0x1.4p-3, 0x1.816bb27e10fb3p+1, 0x1.9012be70f9518p+1,
     0x1.e81300e4d3eep+2, 0x1.a8f6a44274aedp+6, 0x1.3d3f8d6189c12p+2,
     0x1.bcca9d188d4aep+6, 0u, 0u, 0u, 0u, 0u, 1u, 0u, 2u, 60u,
     244496u, 209568u, 1u, 15u, 0x1.4cccccccccccdp+1, 5,
     0x466184e4ce33e3a8ULL},
    {0x1.4p-3, 0x1.8d819aeab5fbfp+1, 0x1.6fd8256783aaep+1,
     0x1.9c2abe988316p+3, 0x1.47d7e782a67e2p+6, 0x1.0be8957cbb9b2p+3,
     0x1.6954fa323df18p+6, 0u, 0u, 0u, 0u, 0u, 1u, 0u, 0u, 60u,
     174640u, 209568u, 2u, 20u, 0x1.199999999999ap+1, 3,
     0xbbd033b5e6df46e4ULL},
};

constexpr DispatchRound kLstmAsyncTopK[] = {
    {0x1.4p-3, 0x1.97a30b7798a24p+1, 0x1.a1b255d75268p+1,
     0x1.164f5eb3477ap+2, 0x1.661d7031003ddp+5, 0x1.32241b5ece9fcp+1,
     0x1.793fb1e6ed27dp+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 60u,
     41952u, 174640u, 2u, 5u, 0x1.ccccccccccccdp+0, 4,
     0xf6484a09aafc4b69ULL},
    {0x1.4p-3, 0x1.7e7bd678ace6p+1, 0x1.8d16aff0ded77p+1,
     0x1.d8ccd70107178p+1, 0x1.a7fce3a9d02f6p+5, 0x1.d8ccd70107178p-1,
     0x1.af601705d44bcp+5, 0u, 0u, 2u, 0u, 0u, 1u, 0u, 2u, 60u,
     34960u, 209568u, 3u, 10u, 0x1.999999999999ap+1, 5,
     0x7ad9b29793ce8063ULL},
    {0x1.4p-3, 0x1.74409aefb868fp+1, 0x1.8928eb6f86c22p+1,
     0x1.797b9f7e834aep+2, 0x1.573a37ebb9bb2p+6, 0x1.2dfc7f986908bp+0,
     0x1.5bf229ea1b5f4p+6, 0u, 0u, 1u, 0u, 0u, 2u, 0u, 2u, 60u,
     41952u, 244496u, 0u, 15u, 0x1.3333333333333p+1, 5,
     0x405fe2fce18133cfULL},
    {0x1.4p-3, 0x1.76c2696a3f083p+1, 0x1.90a651ff7bca8p+1,
     0x1.b38bddfb1daaep+2, 0x1.364ab2d8d0f24p+6, 0x1.b38bddfb1daaep+2,
     0x1.518370b882ccfp+6, 0u, 0u, 0u, 0u, 0u, 1u, 0u, 1u, 60u,
     62928u, 209568u, 1u, 20u, 0x1.6666666666666p+1, 6,
     0xe4693540e8e8255fULL},
};

constexpr DispatchRound kLstmBufferedInt8[] = {
    {0x1p-2, 0x1.8c2762517016dp+1, 0x1.9f73f47b5a734p+1,
     0x1.d50837a583581p+1, 0x1.33884a9392c28p+4, 0x1.bd949b43a32d4p+1,
     0x1.6b3addfc07282p+4, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 36u,
     26616u, 104784u, 1u, 1u, 0x0p+0, 0,
     0x5bbade736a792ce8ULL},
    {0x1.4p-3, 0x1.965896e301072p+1, 0x1.a5d1008aff8c3p+1,
     0x1.c2c7f150f85ecp-1, 0x1.48ace7d577e2ap+5, 0x1.efdbefd91135p-1,
     0x1.506c5794dc277p+5, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 36u,
     35488u, 104784u, 1u, 2u, 0x1p+0, 1,
     0xc43405f40b67d435ULL},
    {0x1.8p-3, 0x1.867864d0a7a62p+1, 0x1.90b96f66bcb5dp+1,
     0x1.c399a14153dacp+1, 0x1.89789e2aceb71p+4, 0x1.9670aabacb782p+0,
     0x1.a2dfa8d67b6e9p+4, 0u, 0u, 2u, 0u, 0u, 1u, 0u, 2u, 36u,
     26616u, 139712u, 3u, 3u, 0x1.5555555555555p-1, 2,
     0x775d0f5bdb7df8bdULL},
    {0x1.4p-3, 0x1.7796be7a2f781p+1, 0x1.86b930398d1f4p+1,
     0x1.a0cfd8710a6ecp+1, 0x1.7f5945bcf3ebbp+4, 0x1.df556c1b98cc3p+1,
     0x1.bb43f34067053p+4, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 36u,
     35488u, 104784u, 0u, 4u, 0x1p+0, 2,
     0x7366ad0229d92300ULL},
};

struct DispatchCase
{
    const char *name;
    models::Workload workload;
    Campaign campaign;
    const DispatchRound *rounds;
    std::uint64_t params_hash; //!< FNV-1a of the final saveParams() bits
};

constexpr DispatchCase kDispatchCases[] = {
    {"CnnSyncTopK", models::Workload::CnnMnist, Campaign::SyncTopK,
     kCnnSyncTopK, 0xcc36dbb32ed53024ULL},
    {"CnnSyncInt8", models::Workload::CnnMnist, Campaign::SyncInt8,
     kCnnSyncInt8, 0xe14e6803a7a4e5edULL},
    {"CnnAsyncIdentity", models::Workload::CnnMnist,
     Campaign::AsyncIdentity, kCnnAsyncIdentity, 0xc6395a2d62e2de1bULL},
    {"CnnAsyncTopK", models::Workload::CnnMnist, Campaign::AsyncTopK,
     kCnnAsyncTopK, 0x7d4e8f9acd3e1500ULL},
    {"CnnBufferedInt8", models::Workload::CnnMnist, Campaign::BufferedInt8,
     kCnnBufferedInt8, 0xc0bf121b457eed0bULL},
    {"LstmSyncTopK", models::Workload::LstmShakespeare, Campaign::SyncTopK,
     kLstmSyncTopK, 0x6805bc9d646d992fULL},
    {"LstmSyncInt8", models::Workload::LstmShakespeare, Campaign::SyncInt8,
     kLstmSyncInt8, 0xa3064bd822e77da1ULL},
    {"LstmAsyncIdentity", models::Workload::LstmShakespeare,
     Campaign::AsyncIdentity, kLstmAsyncIdentity, 0x2a91058a9584757eULL},
    {"LstmAsyncTopK", models::Workload::LstmShakespeare,
     Campaign::AsyncTopK, kLstmAsyncTopK, 0xe17ce02ed6b03787ULL},
    {"LstmBufferedInt8", models::Workload::LstmShakespeare,
     Campaign::BufferedInt8, kLstmBufferedInt8, 0x0e8de99b4eb02d04ULL},
};

} // namespace

class DispatchGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, DispatchCase>>
{
};

TEST_P(DispatchGoldenTest, BitIdenticalToCapturedCampaign)
{
    const auto [threads, golden] = GetParam();
    std::uint64_t params_hash = 0;
    const std::vector<DispatchRound> got = runDispatchCampaign(
        golden.workload, golden.campaign, threads, params_hash);
    ASSERT_EQ(got.size(), isSync(golden.campaign) ? 5u : 4u);
    for (std::size_t r = 0; r < got.size(); ++r) {
        SCOPED_TRACE(std::string(golden.name) + " round " +
                     std::to_string(r + 1));
        const DispatchRound &g = golden.rounds[r];
#define EXPECT_FIELD(f) EXPECT_EQ(got[r].f, g.f) << #f
        EXPECT_FIELD(test_accuracy);
        EXPECT_FIELD(test_loss);
        EXPECT_FIELD(train_loss);
        EXPECT_FIELD(round_time);
        EXPECT_FIELD(energy_participants);
        EXPECT_FIELD(energy_idle);
        EXPECT_FIELD(energy_total);
        EXPECT_FIELD(dropped_straggler);
        EXPECT_FIELD(dropped_diverged);
        EXPECT_FIELD(dropped_offline);
        EXPECT_FIELD(dropped_crashed);
        EXPECT_FIELD(dropped_upload);
        EXPECT_FIELD(dropped_churn);
        EXPECT_FIELD(dropped_stale);
        EXPECT_FIELD(dropped_duplicate);
        EXPECT_FIELD(samples_aggregated);
        EXPECT_FIELD(bytes_up_total);
        EXPECT_FIELD(bytes_down_total);
        EXPECT_FIELD(upload_retries);
        EXPECT_FIELD(model_version);
        EXPECT_FIELD(staleness_mean);
        EXPECT_FIELD(staleness_max);
        EXPECT_FIELD(reports);
#undef EXPECT_FIELD
    }
    EXPECT_EQ(params_hash, golden.params_hash);
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndParallel, DispatchGoldenTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::ValuesIn(kDispatchCases)),
    [](const ::testing::TestParamInfo<DispatchGoldenTest::ParamType> &info) {
        return std::string(std::get<1>(info.param).name) + "_threads" +
               std::to_string(std::get<0>(info.param));
    });

// ---- RoundTraceGolden: the round JSONL and its counters. ----------------
//
// FedGPO-driven Sync, Async and Buffered campaigns whose faults reach all
// seven fault kinds, pinned as the FNV-1a hash of every round-trace line
// (written without host timings, so the faults array and the aggregation
// and decision sections are all covered) plus every fault.*, comm.* and
// rounds.* counter at obs::Level::Basic. Captured before the trace line
// was rebuilt from the finished RoundContext, so the line and the
// counters must not change however the round record is assembled.

namespace {

enum class TraceCampaign
{
    SyncTopK,
    AsyncInt8,
    BufferedIdentity,
};

constexpr int kTraceRounds = 5;

// Capture config: 12 devices, 144/32 train/test samples, seed 11, both
// variance processes on, offline 0.15 and upload failure 0.4. Sync adds
// TopK, crash 0.2 and quorum 0.8; Async (Int8) and Buffered (M = 3,
// Identity) add churn 0.2, duplicate 0.2, a 5 s reconnect delay and
// max_staleness 2.
FlConfig
traceConfig(TraceCampaign campaign, std::size_t threads)
{
    FlConfig config;
    config.n_devices = 12;
    config.train_samples = 144;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;
    config.network_unstable = true;
    config.threads = threads;
    config.faults.offline_rate = 0.15;
    config.faults.upload_failure_rate = 0.4;
    if (campaign == TraceCampaign::SyncTopK) {
        config.comm.codec = comm::Codec::TopK;
        config.faults.crash_rate = 0.2;
        config.faults.quorum_fraction = 0.8;
        return config;
    }
    if (campaign == TraceCampaign::AsyncInt8) {
        config.protocol.mode = ProtocolMode::Async;
        config.comm.codec = comm::Codec::Int8Quant;
    } else {
        config.protocol.mode = ProtocolMode::Buffered;
        config.protocol.buffer_size = 3;
    }
    config.protocol.max_staleness = 2;
    config.faults.churn_rate = 0.2;
    config.faults.duplicate_rate = 0.2;
    config.faults.reconnect_delay_s = 5.0;
    return config;
}

struct CounterValue
{
    const char *name;
    std::uint64_t value;
};

/** What one traced campaign leaves behind. */
struct TraceRun
{
    std::vector<std::uint64_t> lines; //!< FNV-1a per JSONL line
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

TraceRun
runTraceCampaign(TraceCampaign campaign, std::size_t threads)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("fedgpo_round_trace_golden_" +
         std::to_string(static_cast<int>(campaign)) + "_" +
         std::to_string(threads) + ".jsonl");
    obs::ScopedLevel level(obs::Level::Basic);
    obs::MetricsRegistry::instance().reset();
    {
        FlSimulator sim(traceConfig(campaign, threads));
        core::FedGpo policy;
        round::JsonlTraceWriter trace(path.string(), false);
        sim.addRoundObserver(&trace);
        for (int r = 0; r < kTraceRounds; ++r)
            sim.runRound(policy);
        sim.removeRoundObserver(&trace);
    }

    TraceRun out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        Fnv1a h;
        for (char c : line)
            h.add(c);
        out.lines.push_back(h.h);
    }
    in.close();
    std::filesystem::remove(path);
    for (const auto &[name, value] :
         obs::MetricsRegistry::instance().snapshot().counters)
        if (name.rfind("fault.", 0) == 0 || name.rfind("comm.", 0) == 0 ||
            name.rfind("rounds.", 0) == 0)
            out.counters.emplace_back(name, value);
    obs::MetricsRegistry::instance().reset();
    return out;
}

constexpr std::uint64_t kSyncTopKLines[kTraceRounds] = {
    0xf0f8b6c127a31d18ULL, 0x7ba24e4d05527dc7ULL, 0x516f9fb4bc2b5df5ULL,
    0x41c98753ce3bc01aULL, 0xc4d836462236aee8ULL,
};

constexpr CounterValue kSyncTopKCounters[] = {
    {"comm.bytes_down", 1450696u},
    {"comm.bytes_up", 455184u},
    {"comm.bytes_up.identity", 0u},
    {"comm.bytes_up.int8", 0u},
    {"comm.bytes_up.topk", 455184u},
    {"comm.encoded_updates", 31u},
    {"fault.crash", 6u},
    {"fault.offline", 5u},
    {"fault.upload_exhausted", 1u},
    {"fault.upload_retry", 27u},
    {"rounds.aborted", 3u},
    {"rounds.completed", 5u},
};

constexpr std::uint64_t kAsyncInt8Lines[kTraceRounds] = {
    0xa405d216710227b8ULL, 0x5e2af8b06dc1c445ULL, 0xd79406fba2fff065ULL,
    0xa15480028631f3a3ULL, 0x80683d2b2d161561ULL,
};

constexpr CounterValue kAsyncInt8Counters[] = {
    {"comm.bytes_down", 5763576u},
    {"comm.bytes_up", 1812356u},
    {"comm.bytes_up.identity", 0u},
    {"comm.bytes_up.int8", 1812356u},
    {"comm.bytes_up.topk", 0u},
    {"comm.encoded_updates", 116u},
    {"fault.churn", 31u},
    {"fault.duplicate", 27u},
    {"fault.offline", 33u},
    {"fault.stale", 63u},
    {"fault.upload_exhausted", 4u},
    {"fault.upload_retry", 70u},
    {"rounds.aborted", 0u},
    {"rounds.completed", 5u},
};

constexpr std::uint64_t kBufferedIdentityLines[kTraceRounds] = {
    0x6b7ea2c8b575cfedULL, 0x5450cd0e331c046fULL, 0xcfe0cf7b8891ccebULL,
    0xcde35926090e68c5ULL, 0xec221489169ea4e6ULL,
};

constexpr CounterValue kBufferedIdentityCounters[] = {
    {"comm.bytes_down", 940992u},
    {"comm.bytes_up", 823368u},
    {"comm.bytes_up.identity", 823368u},
    {"comm.bytes_up.int8", 0u},
    {"comm.bytes_up.topk", 0u},
    {"comm.encoded_updates", 0u},
    {"fault.churn", 8u},
    {"fault.duplicate", 5u},
    {"fault.offline", 5u},
    {"fault.stale", 1u},
    {"fault.upload_retry", 11u},
    {"rounds.aborted", 0u},
    {"rounds.completed", 5u},
};

struct TraceCase
{
    const char *name;
    TraceCampaign campaign;
    const std::uint64_t *lines;
    const CounterValue *counters;
    std::size_t n_counters;
};

const TraceCase kTraceCases[] = {
    {"SyncTopK", TraceCampaign::SyncTopK, kSyncTopKLines, kSyncTopKCounters,
     std::size(kSyncTopKCounters)},
    {"AsyncInt8", TraceCampaign::AsyncInt8, kAsyncInt8Lines,
     kAsyncInt8Counters, std::size(kAsyncInt8Counters)},
    {"BufferedIdentity", TraceCampaign::BufferedIdentity,
     kBufferedIdentityLines, kBufferedIdentityCounters,
     std::size(kBufferedIdentityCounters)},
};

} // namespace

class RoundTraceGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, TraceCase>>
{
};

TEST_P(RoundTraceGoldenTest, LinesAndCountersMatchCapture)
{
    const auto [threads, golden] = GetParam();
    const TraceRun got = runTraceCampaign(golden.campaign, threads);
    ASSERT_EQ(got.lines.size(), static_cast<std::size_t>(kTraceRounds));
    for (int r = 0; r < kTraceRounds; ++r)
        EXPECT_EQ(got.lines[r], golden.lines[r])
            << golden.name << " round " << r + 1;
    std::vector<std::pair<std::string, std::uint64_t>> want;
    for (std::size_t i = 0; i < golden.n_counters; ++i)
        want.emplace_back(golden.counters[i].name, golden.counters[i].value);
    EXPECT_EQ(got.counters, want);
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndParallel, RoundTraceGoldenTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::ValuesIn(kTraceCases)),
    [](const ::testing::TestParamInfo<RoundTraceGoldenTest::ParamType>
           &info) {
        return std::string(std::get<1>(info.param).name) + "_threads" +
               std::to_string(std::get<0>(info.param));
    });
