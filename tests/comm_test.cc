/**
 * @file
 * Update-codec subsystem tests: payload-byte formulas, round-trip error
 * bounds, Int8 unbiasedness over the split comm streams, TopK selection
 * and error-feedback convergence, thread-count invariance of codec runs,
 * and byte accounting through the round pipeline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "comm/codec.h"
#include "comm/comm_model.h"
#include "fl/simulator.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fedgpo {
namespace comm {
namespace {

std::vector<float>
rampDelta(std::size_t n)
{
    std::vector<float> delta(n);
    for (std::size_t i = 0; i < n; ++i)
        delta[i] = 0.01f * static_cast<float>(i % 37) -
                   0.02f * static_cast<float>(i % 11);
    return delta;
}

// --- Payload formulas. ---------------------------------------------------

TEST(CodecPayload, IdentityIsFourBytesPerParam)
{
    IdentityCodec codec;
    EXPECT_EQ(codec.payloadBytes(0), 0u);
    EXPECT_EQ(codec.payloadBytes(1), 4u);
    EXPECT_EQ(codec.payloadBytes(1000), 4000u);
}

TEST(CodecPayload, Int8IsOneBytePerParamPlusChunkScales)
{
    Int8QuantCodec codec(256);
    // n + 4 * ceil(n / chunk).
    EXPECT_EQ(codec.payloadBytes(256), 256u + 4u);
    EXPECT_EQ(codec.payloadBytes(257), 257u + 8u);
    EXPECT_EQ(codec.payloadBytes(1000), 1000u + 16u);
}

TEST(CodecPayload, TopKIsEightBytesPerKeptCoordinate)
{
    TopKCodec codec(0.1);
    EXPECT_EQ(codec.keptCount(1000), 100u);
    EXPECT_EQ(codec.payloadBytes(1000), 800u);
    // Kept count clamps to [1, n].
    EXPECT_EQ(codec.keptCount(3), 1u);
    TopKCodec all(1.0);
    EXPECT_EQ(all.keptCount(10), 10u);
}

TEST(CodecPayload, MakeCodecBuildsEachLevel)
{
    CommConfig config;
    config.quant_chunk = 128;
    config.topk_fraction = 0.25;
    EXPECT_EQ(makeCodec(Codec::Identity, config)->kind(),
              Codec::Identity);
    EXPECT_EQ(makeCodec(Codec::Int8Quant, config)->kind(),
              Codec::Int8Quant);
    EXPECT_EQ(makeCodec(Codec::TopK, config)->kind(), Codec::TopK);
}

TEST(CodecPayload, EncodeMatchesPayloadBytes)
{
    // The contract the event pump schedules arrivals on: every encode's
    // payload_bytes equals payloadBytes(param_count), for every codec and
    // size, so a dispatch can be costed before its update is trained.
    std::vector<std::size_t> sizes = {1, 255, 256, 257, 1000};
    for (const models::Workload w : models::kAllWorkloads)
        sizes.push_back(models::buildModel(w, 1)->paramCount());
    const CommConfig config;
    for (std::size_t i = 0; i < kNumCodecs; ++i) {
        const Codec level = static_cast<Codec>(i);
        const auto codec = makeCodec(level, config);
        for (const std::size_t n : sizes) {
            SCOPED_TRACE(std::string(codecName(level)) +
                         " n=" + std::to_string(n));
            std::vector<float> residual;
            util::Rng rng(n);
            Encoded encoded;
            codec->encode(rampDelta(n), residual, rng, encoded);
            EXPECT_EQ(encoded.param_count, n);
            EXPECT_EQ(encoded.payload_bytes, codec->payloadBytes(n));
        }
    }
}

TEST(CodecNames, RoundTripThroughLabels)
{
    for (std::size_t i = 0; i < kNumCodecs; ++i) {
        const Codec c = static_cast<Codec>(i);
        Codec parsed;
        ASSERT_TRUE(codecFromName(codecName(c), parsed));
        EXPECT_EQ(parsed, c);
    }
    Codec unused;
    EXPECT_FALSE(codecFromName("gzip", unused));
}

// --- Identity. -----------------------------------------------------------

TEST(IdentityCodec, RoundTripIsExactAndResidualUntouched)
{
    IdentityCodec codec;
    const std::vector<float> delta = rampDelta(301);
    std::vector<float> residual{1.0f, 2.0f};
    util::Rng rng(7);
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    EXPECT_EQ(enc.payload_bytes, 4u * delta.size());
    EXPECT_EQ(residual, (std::vector<float>{1.0f, 2.0f}));
    std::vector<float> back;
    codec.decode(enc, back);
    EXPECT_EQ(back, delta);
}

// --- Int8 quantization. --------------------------------------------------

TEST(Int8Codec, RoundTripErrorBoundedByQuantStep)
{
    Int8QuantCodec codec(64);
    const std::vector<float> delta = rampDelta(500);
    std::vector<float> residual;
    util::Rng rng(13);
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    std::vector<float> back;
    codec.decode(enc, back);
    ASSERT_EQ(back.size(), delta.size());
    for (std::size_t chunk = 0; chunk * 64 < delta.size(); ++chunk) {
        const std::size_t lo = chunk * 64;
        const std::size_t hi = std::min(delta.size(), lo + 64);
        float max_abs = 0.0f;
        for (std::size_t i = lo; i < hi; ++i)
            max_abs = std::max(max_abs, std::abs(delta[i]));
        // Stochastic rounding moves a value at most one level.
        const double step = static_cast<double>(max_abs) / 127.0;
        for (std::size_t i = lo; i < hi; ++i)
            EXPECT_LE(std::abs(static_cast<double>(back[i]) -
                               static_cast<double>(delta[i])),
                      step + 1e-7)
                << "coordinate " << i;
    }
}

TEST(Int8Codec, ZeroChunkStaysExactlyZero)
{
    Int8QuantCodec codec(32);
    const std::vector<float> delta(100, 0.0f);
    std::vector<float> residual;
    util::Rng rng(3);
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    std::vector<float> back;
    codec.decode(enc, back);
    for (float v : back)
        EXPECT_EQ(v, 0.0f);
}

TEST(Int8Codec, StochasticRoundingIsUnbiased)
{
    // E[decode(encode(delta))] = delta: averaging reconstructions over
    // many independent comm streams must converge on the true value.
    Int8QuantCodec codec(128);
    const std::vector<float> delta = rampDelta(128);
    constexpr int kTrials = 4000;
    std::vector<double> mean(delta.size(), 0.0);
    util::Rng root(99);
    for (int t = 0; t < kTrials; ++t) {
        util::Rng stream = root.split(static_cast<std::uint64_t>(t));
        std::vector<float> residual;
        Encoded enc;
        codec.encode(delta, residual, stream, enc);
        std::vector<float> back;
        codec.decode(enc, back);
        for (std::size_t i = 0; i < back.size(); ++i)
            mean[i] += static_cast<double>(back[i]) / kTrials;
    }
    float max_abs = 0.0f;
    for (float v : delta)
        max_abs = std::max(max_abs, std::abs(v));
    // Standard error of the mean of a bounded rounding error after 4000
    // trials is well under 2% of one quantization step.
    const double tol = 0.05 * static_cast<double>(max_abs) / 127.0;
    for (std::size_t i = 0; i < delta.size(); ++i)
        EXPECT_NEAR(mean[i], static_cast<double>(delta[i]), tol)
            << "coordinate " << i;
}

TEST(Int8Codec, SameStreamSameEncoding)
{
    Int8QuantCodec codec(64);
    const std::vector<float> delta = rampDelta(200);
    std::vector<float> r1, r2;
    util::Rng a(42), b(42);
    Encoded ea, eb;
    codec.encode(delta, r1, a, ea);
    codec.encode(delta, r2, b, eb);
    EXPECT_EQ(ea.quantized, eb.quantized);
    EXPECT_EQ(ea.scales, eb.scales);
}

TEST(Int8Codec, NonFiniteChunkDecodesToNaN)
{
    // Divergence must survive the codec: rejectDivergedUpdates keys off
    // non-finite weights, so a NaN in the delta may not be silently
    // quantized into a finite value.
    Int8QuantCodec codec(16);
    std::vector<float> delta = rampDelta(48);
    delta[20] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> residual;
    util::Rng rng(5);
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    std::vector<float> back;
    codec.decode(enc, back);
    for (std::size_t i = 16; i < 32; ++i)
        EXPECT_TRUE(std::isnan(back[i])) << "coordinate " << i;
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_TRUE(std::isfinite(back[i])) << "coordinate " << i;
}

// --- TopK sparsification. ------------------------------------------------

TEST(TopKCodec, KeepsLargestMagnitudesAndBanksTheRest)
{
    TopKCodec codec(0.25); // k = 2 of 8
    const std::vector<float> delta{0.1f, -5.0f, 0.2f, 3.0f,
                                   -0.3f, 0.0f, 0.4f, -0.5f};
    std::vector<float> residual;
    util::Rng rng(1);
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    ASSERT_EQ(enc.indices.size(), 2u);
    EXPECT_EQ(enc.indices[0], 1u);
    EXPECT_EQ(enc.indices[1], 3u);
    EXPECT_EQ(enc.values[0], -5.0f);
    EXPECT_EQ(enc.values[1], 3.0f);
    EXPECT_EQ(enc.payload_bytes, 16u);

    // Residual banks exactly the untransmitted coordinates.
    ASSERT_EQ(residual.size(), delta.size());
    EXPECT_EQ(residual[1], 0.0f);
    EXPECT_EQ(residual[3], 0.0f);
    EXPECT_EQ(residual[0], 0.1f);
    EXPECT_EQ(residual[7], -0.5f);

    std::vector<float> back;
    codec.decode(enc, back);
    ASSERT_EQ(back.size(), delta.size());
    EXPECT_EQ(back[1], -5.0f);
    EXPECT_EQ(back[3], 3.0f);
    EXPECT_EQ(back[0], 0.0f);
}

TEST(TopKCodec, ResidualReoffersEnergyNextRound)
{
    TopKCodec codec(0.25);
    std::vector<float> residual;
    util::Rng rng(1);
    // Round 1: only the two big coordinates go out; 0.4 is banked.
    std::vector<float> delta{0.0f, -5.0f, 0.0f, 3.0f,
                             0.0f, 0.0f, 0.4f, 0.0f};
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    EXPECT_EQ(residual[6], 0.4f);
    // Round 2: a zero delta still transmits the banked coordinate (the
    // second kept slot is a zero-magnitude tie and carries no energy).
    std::vector<float> zero(delta.size(), 0.0f);
    codec.encode(zero, residual, rng, enc);
    bool banked_sent = false;
    for (std::size_t j = 0; j < enc.indices.size(); ++j) {
        if (enc.indices[j] == 6u) {
            banked_sent = true;
            EXPECT_EQ(enc.values[j], 0.4f);
        }
    }
    EXPECT_TRUE(banked_sent);
    EXPECT_EQ(residual[6], 0.0f);
}

TEST(TopKCodec, ErrorFeedbackConvergesOnQuadraticToy)
{
    // Gradient descent on f(x) = 0.5 * ||x - target||^2 where each step's
    // update is TopK-compressed: without error feedback only the k
    // steepest coordinates would ever move; with it every coordinate's
    // suppressed updates accumulate and eventually transmit, so x -> target.
    constexpr std::size_t kDim = 40;
    TopKCodec codec(0.1); // 4 of 40 coordinates per step
    std::vector<float> target(kDim);
    for (std::size_t i = 0; i < kDim; ++i)
        target[i] = 0.5f + 0.01f * static_cast<float>(i);
    std::vector<float> x(kDim, 0.0f);
    std::vector<float> residual;
    util::Rng rng(17);
    // Error feedback applies a coordinate's update up to ~1/fraction
    // steps late, so the stable step size scales with the fraction —
    // too large a step overshoots on stale banked gradients.
    for (int step = 0; step < 2000; ++step) {
        std::vector<float> grad_step(kDim);
        for (std::size_t i = 0; i < kDim; ++i)
            grad_step[i] = 0.05f * (target[i] - x[i]);
        Encoded enc;
        codec.encode(grad_step, residual, rng, enc);
        std::vector<float> applied;
        codec.decode(enc, applied);
        for (std::size_t i = 0; i < kDim; ++i)
            x[i] += applied[i];
    }
    for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_NEAR(x[i], target[i], 0.01) << "coordinate " << i;
}

TEST(TopKCodec, NonFiniteCoordinateIsTransmittedNotBanked)
{
    TopKCodec codec(0.25);
    std::vector<float> delta{0.1f, 0.2f,
                             std::numeric_limits<float>::quiet_NaN(),
                             -3.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    std::vector<float> residual;
    util::Rng rng(1);
    Encoded enc;
    codec.encode(delta, residual, rng, enc);
    // NaN sorts as largest magnitude: it ships (so divergence detection
    // still sees it) and is never banked into the residual.
    ASSERT_EQ(enc.indices.size(), 2u);
    EXPECT_EQ(enc.indices[0], 2u);
    EXPECT_TRUE(std::isnan(enc.values[0]));
    EXPECT_EQ(enc.indices[1], 3u);
    for (float r : residual)
        EXPECT_TRUE(std::isfinite(r));
}

TEST(TopKCodec, NaNFractionIsFatal)
{
    EXPECT_THROW(TopKCodec(std::numeric_limits<double>::quiet_NaN()),
                 util::FatalError);
    // Out-of-range numbers still clamp.
    EXPECT_DOUBLE_EQ(TopKCodec(2.0).fraction(), 1.0);
    EXPECT_DOUBLE_EQ(TopKCodec(0.0).fraction(), 1e-6);
}

// --- CommModel. ----------------------------------------------------------

TEST(CommModel, CompressionRatioGuardsZero)
{
    EXPECT_EQ(CommModel::compressionRatio(4000, 0), 0.0);
    EXPECT_DOUBLE_EQ(CommModel::compressionRatio(4000, 1000), 4.0);
}

// --- Round pipeline integration. -----------------------------------------

fl::FlConfig
commConfig(Codec codec, std::size_t threads = 1)
{
    fl::FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 10;
    config.train_samples = 160;
    config.test_samples = 64;
    config.seed = 21;
    config.threads = threads;
    config.comm.codec = codec;
    return config;
}

TEST(RoundPipeline, IdentityBytesMatchParamBytes)
{
    fl::FlSimulator sim(commConfig(Codec::Identity));
    const fl::RoundResult r =
        sim.runRoundWithParams(fl::GlobalParams{8, 1, 6});
    EXPECT_EQ(r.codec, Codec::Identity);
    std::uint64_t up = 0, down = 0;
    for (const auto &p : r.participants) {
        if (!p.dropped) {
            EXPECT_EQ(p.bytes_up, sim.paramBytes());
            EXPECT_EQ(p.bytes_down, sim.paramBytes());
        }
        up += p.bytes_up;
        down += p.bytes_down;
    }
    EXPECT_EQ(r.bytes_up_total, up);
    EXPECT_EQ(r.bytes_down_total, down);
    EXPECT_GT(up, 0u);
}

TEST(RoundPipeline, CompressingCodecsCutUploadBytesAndTime)
{
    const fl::GlobalParams params{8, 1, 6};
    fl::FlSimulator id_sim(commConfig(Codec::Identity));
    fl::FlSimulator q_sim(commConfig(Codec::Int8Quant));
    fl::FlSimulator k_sim(commConfig(Codec::TopK));
    const fl::RoundResult id = id_sim.runRoundWithParams(params);
    const fl::RoundResult q = q_sim.runRoundWithParams(params);
    const fl::RoundResult k = k_sim.runRoundWithParams(params);

    // Int8 is ~4x, TopK(0.1) ~5x smaller on the uplink.
    EXPECT_LT(q.bytes_up_total * 3, id.bytes_up_total);
    EXPECT_LT(k.bytes_up_total * 4, id.bytes_up_total);
    // Downlink ships raw weights regardless of codec.
    EXPECT_EQ(q.bytes_down_total, id.bytes_down_total);

    // The saved airtime shows up in the modeled comm time and energy.
    double id_up = 0.0, q_up = 0.0;
    for (const auto &p : id.participants)
        id_up += p.cost.t_comm_up;
    for (const auto &p : q.participants)
        q_up += p.cost.t_comm_up;
    EXPECT_LT(q_up, id_up);
}

TEST(RoundPipeline, CodecRunsAreThreadCountInvariant)
{
    for (const Codec codec : {Codec::Int8Quant, Codec::TopK}) {
        fl::FlSimulator one(commConfig(codec, 1));
        fl::FlSimulator four(commConfig(codec, 4));
        for (int round = 0; round < 3; ++round) {
            const fl::RoundResult a =
                one.runRoundWithParams(fl::GlobalParams{8, 1, 6});
            const fl::RoundResult b =
                four.runRoundWithParams(fl::GlobalParams{8, 1, 6});
            EXPECT_EQ(a.test_accuracy, b.test_accuracy)
                << codecName(codec) << " round " << round;
            EXPECT_EQ(a.train_loss, b.train_loss);
            EXPECT_EQ(a.bytes_up_total, b.bytes_up_total);
        }
        EXPECT_EQ(one.globalModel().saveParams(),
                  four.globalModel().saveParams())
            << codecName(codec);
    }
}

TEST(RoundPipeline, LossyCodecsStillLearn)
{
    for (const Codec codec : {Codec::Int8Quant, Codec::TopK}) {
        fl::FlSimulator sim(commConfig(codec));
        double first = 0.0, last = 0.0;
        for (int i = 0; i < 8; ++i) {
            const fl::RoundResult r =
                sim.runRoundWithParams(fl::GlobalParams{8, 5, 6});
            if (i == 0)
                first = r.test_accuracy;
            last = r.test_accuracy;
        }
        EXPECT_GT(last, first + 0.15) << codecName(codec);
    }
}

TEST(RoundPipeline, AsyncEpochsCountEncodedUploads)
{
    // Sync rounds and Async epochs count traffic the same way: every
    // report that uploaded (bytes_up > 0) went through the codec, so it
    // is one encoded update and one compression-ratio sample.
    obs::ScopedLevel level(obs::Level::Basic);
    fl::FlConfig config = commConfig(Codec::TopK);
    config.n_devices = 12;
    config.protocol.mode = fl::ProtocolMode::Async;
    fl::FlSimulator sim(config);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    const obs::Counter *encoded = reg.counter("comm.encoded_updates");
    const obs::Histogram *ratio = reg.histogram("comm.compression_ratio", {});
    const std::uint64_t encoded_before = encoded->value();
    const std::size_t ratio_before = ratio->snapshot().stat.count();
    std::uint64_t uploads = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
        const fl::RoundResult r =
            sim.runRoundWithParams(fl::GlobalParams{8, 1, 5});
        for (const auto &p : r.participants)
            if (p.bytes_up > 0)
                ++uploads;
    }
    ASSERT_GT(uploads, 0u);
    EXPECT_EQ(encoded->value() - encoded_before, uploads);
    EXPECT_EQ(ratio->snapshot().stat.count() - ratio_before, uploads);
}

} // namespace
} // namespace comm
} // namespace fedgpo
