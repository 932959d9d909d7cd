#include "comm/codec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace fedgpo {
namespace comm {

const char *
codecName(Codec codec)
{
    switch (codec) {
      case Codec::Identity:  return "identity";
      case Codec::Int8Quant: return "int8";
      case Codec::TopK:      return "topk";
    }
    return "unknown";
}

bool
codecFromName(const std::string &name, Codec &out)
{
    if (name == "identity") {
        out = Codec::Identity;
        return true;
    }
    if (name == "int8") {
        out = Codec::Int8Quant;
        return true;
    }
    if (name == "topk") {
        out = Codec::TopK;
        return true;
    }
    return false;
}

// ---- Identity -------------------------------------------------------------

std::uint64_t
IdentityCodec::payloadBytes(std::size_t param_count) const
{
    return static_cast<std::uint64_t>(param_count) * sizeof(float);
}

void
IdentityCodec::encode(const std::vector<float> &delta,
                      std::vector<float> &residual, util::Rng &rng,
                      Encoded &out) const
{
    (void)residual;
    (void)rng;
    out = Encoded{};
    out.codec = Codec::Identity;
    out.param_count = delta.size();
    out.payload_bytes = payloadBytes(delta.size());
    out.dense = delta;
}

void
IdentityCodec::decode(const Encoded &encoded,
                      std::vector<float> &delta_out) const
{
    assert(encoded.codec == Codec::Identity);
    delta_out = encoded.dense;
}

// ---- Int8Quant ------------------------------------------------------------

Int8QuantCodec::Int8QuantCodec(std::size_t chunk)
    : chunk_(chunk == 0 ? 1 : chunk)
{
}

std::uint64_t
Int8QuantCodec::payloadBytes(std::size_t param_count) const
{
    const std::uint64_t n = param_count;
    const std::uint64_t n_chunks = (n + chunk_ - 1) / chunk_;
    return n + n_chunks * sizeof(float);
}

void
Int8QuantCodec::encode(const std::vector<float> &delta,
                       std::vector<float> &residual, util::Rng &rng,
                       Encoded &out) const
{
    (void)residual;
    const std::size_t n = delta.size();
    out = Encoded{};
    out.codec = Codec::Int8Quant;
    out.param_count = n;
    out.payload_bytes = payloadBytes(n);
    out.quantized.assign(n, 0);
    out.scales.reserve((n + chunk_ - 1) / chunk_);

    for (std::size_t start = 0; start < n; start += chunk_) {
        const std::size_t end = std::min(start + chunk_, n);

        // A non-finite value anywhere in the chunk poisons its scale; the
        // chunk is transmitted as a NaN scale so decode reproduces the
        // divergence and the server's rejectDivergedUpdates still fires.
        // (Casting a non-finite float to int8 would be UB, so the level
        // loop below must never see one.)
        bool finite = true;
        float max_abs = 0.0f;
        for (std::size_t i = start; i < end; ++i) {
            if (!std::isfinite(delta[i])) {
                finite = false;
                break;
            }
            max_abs = std::max(max_abs, std::fabs(delta[i]));
        }
        if (!finite) {
            out.scales.push_back(std::numeric_limits<float>::quiet_NaN());
            continue;
        }
        out.scales.push_back(max_abs);
        if (max_abs == 0.0f)
            continue; // all-zero chunk: levels stay 0

        // Stochastic rounding to 255 signed levels: x in [-127, 127],
        // floor plus a Bernoulli(frac) bump — E[level] = x exactly, so
        // the decoded value is an unbiased estimate of the input.
        for (std::size_t i = start; i < end; ++i) {
            const double x = static_cast<double>(delta[i]) /
                             static_cast<double>(max_abs) * 127.0;
            double level = std::floor(x);
            if (rng.bernoulli(x - level))
                level += 1.0;
            level = std::clamp(level, -127.0, 127.0);
            out.quantized[i] = static_cast<std::int8_t>(level);
        }
    }
}

void
Int8QuantCodec::decode(const Encoded &encoded,
                       std::vector<float> &delta_out) const
{
    assert(encoded.codec == Codec::Int8Quant);
    const std::size_t n = encoded.param_count;
    delta_out.assign(n, 0.0f);
    for (std::size_t start = 0; start < n; start += chunk_) {
        const std::size_t end = std::min(start + chunk_, n);
        const float scale = encoded.scales[start / chunk_];
        if (!std::isfinite(scale)) {
            for (std::size_t i = start; i < end; ++i)
                delta_out[i] = scale; // NaN propagates
            continue;
        }
        if (scale == 0.0f)
            continue;
        for (std::size_t i = start; i < end; ++i)
            delta_out[i] = static_cast<float>(
                static_cast<double>(encoded.quantized[i]) / 127.0 *
                static_cast<double>(scale));
    }
}

// ---- TopK -----------------------------------------------------------------

TopKCodec::TopKCodec(double fraction)
    : fraction_(std::clamp(fraction, 1e-6, 1.0))
{
    // std::clamp passes NaN through, and keptCount would cast it.
    if (std::isnan(fraction))
        util::fatal("TopKCodec: fraction must be a number, got nan");
}

std::size_t
TopKCodec::keptCount(std::size_t param_count) const
{
    if (param_count == 0)
        return 0;
    const std::size_t k = static_cast<std::size_t>(
        std::ceil(fraction_ * static_cast<double>(param_count)));
    return std::clamp<std::size_t>(k, 1, param_count);
}

std::uint64_t
TopKCodec::payloadBytes(std::size_t param_count) const
{
    // One (uint32 index, float32 value) pair per kept coordinate.
    return static_cast<std::uint64_t>(keptCount(param_count)) *
           (sizeof(std::uint32_t) + sizeof(float));
}

void
TopKCodec::encode(const std::vector<float> &delta,
                  std::vector<float> &residual, util::Rng &rng,
                  Encoded &out) const
{
    (void)rng;
    const std::size_t n = delta.size();
    residual.resize(n, 0.0f);

    // Error feedback: offer the accumulated residual together with the
    // fresh delta, so coordinates starved of bandwidth eventually win.
    std::vector<float> acc(n);
    for (std::size_t i = 0; i < n; ++i)
        acc[i] = delta[i] + residual[i];

    // Deterministic selection: a total order (magnitude desc, index asc;
    // non-finite sorts first so divergence is transmitted, not silently
    // banked) makes the top-k set unique, independent of the partial
    // sort's implementation and of the thread count.
    const std::size_t k = keptCount(n);
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    auto magnitude = [&acc](std::uint32_t i) {
        const double m = std::fabs(static_cast<double>(acc[i]));
        return std::isnan(m) ? std::numeric_limits<double>::infinity() : m;
    };
    auto better = [&](std::uint32_t a, std::uint32_t b) {
        const double ma = magnitude(a);
        const double mb = magnitude(b);
        if (ma != mb)
            return ma > mb;
        return a < b;
    };
    if (k < n)
        std::nth_element(order.begin(), order.begin() + k - 1, order.end(),
                         better);
    order.resize(k);
    std::sort(order.begin(), order.end()); // ascending wire format

    out = Encoded{};
    out.codec = Codec::TopK;
    out.param_count = n;
    out.payload_bytes = payloadBytes(n);
    out.indices = std::move(order);
    out.values.reserve(k);
    for (std::uint32_t i : out.indices)
        out.values.push_back(acc[i]);

    // Bank the untransmitted remainder; transmitted coordinates reset.
    residual = std::move(acc);
    for (std::uint32_t i : out.indices)
        residual[i] = 0.0f;
    // A diverged round's error is dropped, not banked — otherwise one
    // bad (B, E) draw would poison the client's every future update.
    for (float &r : residual)
        if (!std::isfinite(r))
            r = 0.0f;
}

void
TopKCodec::decode(const Encoded &encoded,
                  std::vector<float> &delta_out) const
{
    assert(encoded.codec == Codec::TopK);
    delta_out.assign(encoded.param_count, 0.0f);
    for (std::size_t j = 0; j < encoded.indices.size(); ++j)
        delta_out[encoded.indices[j]] = encoded.values[j];
}

// ---- Factory --------------------------------------------------------------

std::unique_ptr<UpdateCodec>
makeCodec(Codec codec, const CommConfig &config)
{
    switch (codec) {
      case Codec::Identity:
        return std::make_unique<IdentityCodec>();
      case Codec::Int8Quant:
        return std::make_unique<Int8QuantCodec>(config.quant_chunk);
      case Codec::TopK:
        return std::make_unique<TopKCodec>(config.topk_fraction);
    }
    return std::make_unique<IdentityCodec>();
}

} // namespace comm
} // namespace fedgpo
