/**
 * @file
 * Pluggable update codecs: how a client's model update is encoded for
 * the uplink. The codec determines the modeled payload bytes — which the
 * cost model converts into airtime, radio energy, retry charges, and
 * ultimately quorum outcomes — while the *decoded* update is what the
 * server aggregates, so lossy codecs trade accuracy for communication.
 *
 * Three codecs, one per scenario (FlConfig::comm):
 *
 *  - Identity:  raw float32 payload; bit-inert (the decoded update equals
 *    the trained weights exactly, and the payload equals the proxy
 *    param_bytes), so default-configured runs replay the pre-codec
 *    goldens unchanged.
 *  - Int8Quant: QSGD-style stochastic quantization. Values are chunked,
 *    each chunk scaled by its max-|v| and stochastically rounded to
 *    signed 8-bit levels. Unbiased (E[decode] = value) and deterministic:
 *    rounding draws come from the per-(round, client) comm stream, a
 *    pure function of (seed, round, client), so encoding is bit-identical
 *    at any FEDGPO_THREADS.
 *  - TopK: magnitude sparsification with error feedback. Only the k
 *    largest-|v| coordinates of (delta + residual) are transmitted as
 *    (index, value) pairs; the untransmitted remainder is banked in a
 *    client-resident residual and re-offered next round, which is what
 *    makes sparsified SGD converge.
 *
 * Codecs operate on the update *delta* (trained weights minus global
 * weights): deltas shrink as training converges, which is exactly the
 * signal quantization scales and top-k selection should see.
 */

#ifndef FEDGPO_COMM_CODEC_H_
#define FEDGPO_COMM_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fedgpo {
namespace comm {

/**
 * Codec level; the values index FlSimulator's per-level codec instances.
 */
enum class Codec : int
{
    Identity = 0, //!< raw float32, 4 bytes/param
    Int8Quant,    //!< stochastic 8-bit quantization, ~1 byte/param
    TopK,         //!< sparse (index, value) pairs, 8 bytes/kept param
};

/** Number of codec levels. */
inline constexpr std::size_t kNumCodecs = 3;

/** Short stable label ("identity"/"int8"/"topk"). */
const char *codecName(Codec codec);

/**
 * Parse a codec label; returns false (and leaves `out` untouched) on an
 * unknown name.
 */
bool codecFromName(const std::string &name, Codec &out);

/**
 * Codec configuration knobs (FlConfig::comm).
 */
struct CommConfig
{
    Codec codec = Codec::Identity; //!< default: bit-inert
    /**
     * TopK: fraction of coordinates transmitted per update, in (0, 1].
     * The payload is 8 bytes per kept coordinate, so the modeled
     * compression ratio vs raw float32 is 1 / (2 * fraction).
     */
    double topk_fraction = 0.1;
    /**
     * Int8Quant: values per quantization chunk (one float32 scale is
     * transmitted per chunk). Payload: n + 4 * ceil(n / chunk) bytes.
     */
    std::size_t quant_chunk = 256;
};

/**
 * One encoded update — the modeled wire message. Only payload_bytes
 * feeds the cost model; the typed vectors carry the actual (simulated)
 * content so decode() reconstructs exactly what a real receiver would.
 */
struct Encoded
{
    Codec codec = Codec::Identity;
    std::size_t param_count = 0;
    std::uint64_t payload_bytes = 0;
    std::vector<float> dense;           //!< Identity: raw values
    std::vector<std::int8_t> quantized; //!< Int8Quant: levels in [-127,127]
    std::vector<float> scales;          //!< Int8Quant: per-chunk max-|v|
    std::vector<std::uint32_t> indices; //!< TopK: kept coordinates (asc)
    std::vector<float> values;          //!< TopK: kept values
};

/**
 * An update codec. Stateless; all per-client state (the error-feedback
 * residual) is owned by the client and passed in, so one codec instance
 * serves concurrent encodes of different clients race-free.
 *
 * Payload contract: encode() of an n-parameter update sets payload_bytes
 * to exactly payloadBytes(n), whatever the values. The event pump costs
 * and schedules a dispatch's arrival from payloadBytes(n) when it
 * dispatches, before the update is trained, and fails fatally at the
 * deferred encode if the two differ.
 */
class UpdateCodec
{
  public:
    virtual ~UpdateCodec() = default;

    /** Which codec level this is. */
    virtual Codec kind() const = 0;

    /**
     * Modeled payload bytes for an update of `param_count` parameters —
     * a pure function, usable for cost prediction without encoding.
     */
    virtual std::uint64_t payloadBytes(std::size_t param_count) const = 0;

    /**
     * Encode one update delta.
     *
     * @param delta    Update to transmit (trained minus global weights).
     * @param residual Client-resident error-feedback state. Codecs
     *                 without error feedback leave it untouched; TopK
     *                 adds it to the delta before selection and stores
     *                 the untransmitted remainder back.
     * @param rng      Per-(round, client) comm stream for stochastic
     *                 codecs. Encoding must be a pure function of
     *                 (delta, residual, rng state) — never of thread
     *                 scheduling.
     * @param out      Receives the wire message (overwritten); its
     *                 payload_bytes is payloadBytes(delta.size()).
     */
    virtual void encode(const std::vector<float> &delta,
                        std::vector<float> &residual, util::Rng &rng,
                        Encoded &out) const = 0;

    /**
     * Reconstruct the server-visible delta from a wire message.
     * `delta_out` is resized to the message's param_count.
     */
    virtual void decode(const Encoded &encoded,
                        std::vector<float> &delta_out) const = 0;
};

/** Raw float32 passthrough (bit-inert default). */
class IdentityCodec : public UpdateCodec
{
  public:
    Codec kind() const override { return Codec::Identity; }
    std::uint64_t payloadBytes(std::size_t param_count) const override;
    void encode(const std::vector<float> &delta,
                std::vector<float> &residual, util::Rng &rng,
                Encoded &out) const override;
    void decode(const Encoded &encoded,
                std::vector<float> &delta_out) const override;
};

/** QSGD-style stochastic 8-bit quantization with per-chunk scales. */
class Int8QuantCodec : public UpdateCodec
{
  public:
    explicit Int8QuantCodec(std::size_t chunk = 256);
    Codec kind() const override { return Codec::Int8Quant; }
    std::uint64_t payloadBytes(std::size_t param_count) const override;
    void encode(const std::vector<float> &delta,
                std::vector<float> &residual, util::Rng &rng,
                Encoded &out) const override;
    void decode(const Encoded &encoded,
                std::vector<float> &delta_out) const override;

    std::size_t chunk() const { return chunk_; }

  private:
    std::size_t chunk_;
};

/** Top-k magnitude sparsification with client-side error feedback. */
class TopKCodec : public UpdateCodec
{
  public:
    /**
     * Keeps `fraction` of the coordinates, clamped to [1e-6, 1]; NaN is
     * fatal.
     */
    explicit TopKCodec(double fraction = 0.1);
    Codec kind() const override { return Codec::TopK; }
    std::uint64_t payloadBytes(std::size_t param_count) const override;
    void encode(const std::vector<float> &delta,
                std::vector<float> &residual, util::Rng &rng,
                Encoded &out) const override;
    void decode(const Encoded &encoded,
                std::vector<float> &delta_out) const override;

    double fraction() const { return fraction_; }

    /** Kept coordinates for an update of `param_count` parameters. */
    std::size_t keptCount(std::size_t param_count) const;

  private:
    double fraction_;
};

/** Build the codec for one level under the given knobs. */
std::unique_ptr<UpdateCodec> makeCodec(Codec codec,
                                       const CommConfig &config);

} // namespace comm
} // namespace fedgpo

#endif // FEDGPO_COMM_CODEC_H_
