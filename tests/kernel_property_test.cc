/**
 * @file
 * Property-based equivalence suite for the blocked kernel layer.
 *
 * The blocked GEMM/im2col kernels in tensor/ops.h promise bit-exact
 * agreement with the naive reference kernels in tensor/reference.h for
 * every input — the blocking may reorder i/j tiles and pack B panels, but
 * each output element must fold its k terms in the same ascending-p order.
 * These tests sweep random shapes (including k=1, n=1, and extents that
 * are not multiples of the register tile) and compare bit patterns, which
 * is NaN-safe where operator== is not.
 *
 * Also pins the non-finite contract: 0 * Inf must produce NaN instead of
 * being skipped (the pre-kernel-layer accumulate/transA GEMMs skipped
 * zero multiplicands, silently masking diverged updates).
 *
 * The depthwise convolution's kernels are held to the same standard
 * against its original per-element loops (tensor/reference.h), the
 * standard convolution against per-element loops that state its chains,
 * max pooling against a copy of its original strict-`>` loop and scatter,
 * the LSTM against a copy of its per-element gate loop and BPTT,
 * and the first-layer rule (no input gradient for a model's first layer)
 * is pinned by counting kernel calls per training step. Layers that keep
 * their buffers across batch-shape changes must match fresh instances bit
 * for bit.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/pool2d.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/kernel_mode.h"
#include "tensor/ops.h"
#include "tensor/reference.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using fedgpo::tensor::Tensor;
namespace ops = fedgpo::tensor;
namespace ref = fedgpo::tensor::reference;

void
fillRandom(Tensor &t, std::mt19937 &gen)
{
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = dist(gen);
}

::testing::AssertionResult
bitEqual(const Tensor &got, const Tensor &want)
{
    if (got.shape() != want.shape())
        return ::testing::AssertionFailure()
               << "shape mismatch: " << fedgpo::tensor::shapeToString(
                      got.shape())
               << " vs " << fedgpo::tensor::shapeToString(want.shape());
    for (std::size_t i = 0; i < got.numel(); ++i) {
        std::uint32_t gb, wb;
        const float gv = got[i], wv = want[i];
        std::memcpy(&gb, &gv, sizeof(gb));
        std::memcpy(&wb, &wv, sizeof(wb));
        // NaN payload/sign is not part of the contract: which source NaN
        // a multiply-add propagates depends on instruction operand order,
        // which differs between the vectorized and scalar compilations.
        // Any NaN matches any NaN; everything else (finite values, Inf
        // signs, zero signs) must match bit for bit.
        if (std::isnan(gv) && std::isnan(wv))
            continue;
        if (gb != wb)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << gv << " (0x" << std::hex
                   << gb << ") vs " << wv << " (0x" << wb << ")";
    }
    return ::testing::AssertionSuccess();
}

struct GemmShape {
    std::size_t m, k, n;
};

// Degenerate extents, register-tile edges, and the actual GEMM shapes the
// model zoo produces. The tiles are 4x8, plus 8x16 interiors on AVX-512
// hosts; the last three shapes put every tile class into one call there:
// row tails m % 8 of 1 and 7, column tails n % 16 of 1, 8 (n = 24, a full
// 4x8 strip beside an 8x16 strip) and 15, and k > kKc so the A^T kernel
// round-trips its 8x16 tiles through C.
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 1, 8},     {4, 1, 8},     {3, 17, 5},
    {5, 3, 1},    {8, 2, 9},     {17, 31, 33},  {33, 9, 8},
    {13, 8, 16},  {9, 300, 7},   {2, 28, 128},  {6, 72, 16},
    {12, 512, 20}, {40, 9, 8},   {8, 32, 256},  {9, 300, 17},
    {15, 300, 24}, {23, 40, 31},
};

TEST(KernelEquivalence, MatmulMatchesReferenceBitExactly)
{
    std::mt19937 gen(20260806);
    for (const auto &s : kShapes) {
        Tensor a({s.m, s.k}), b({s.k, s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        Tensor got, want;
        ops::matmul(a, b, got);
        ref::matmulRef(a, b, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "matmul m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(KernelEquivalence, MatmulBiasMatchesReferenceBitExactly)
{
    std::mt19937 gen(7);
    for (const auto &s : kShapes) {
        Tensor a({s.m, s.k}), b({s.k, s.n}), bias({s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        fillRandom(bias, gen);
        Tensor got, want;
        ops::matmulBias(a, b, bias, got);
        ref::matmulBiasRef(a, b, bias, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "matmulBias m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(KernelEquivalence, MatmulBiasMatchesSeparateBiasPass)
{
    // The fused epilogue must equal matmul followed by a bias add: the
    // bias joins after the k-chain, never as the accumulator seed.
    std::mt19937 gen(11);
    for (const auto &s : kShapes) {
        Tensor a({s.m, s.k}), b({s.k, s.n}), bias({s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        fillRandom(bias, gen);
        Tensor fused, separate;
        ops::matmulBias(a, b, bias, fused);
        ops::matmul(a, b, separate);
        for (std::size_t r = 0; r < s.m; ++r)
            for (std::size_t c = 0; c < s.n; ++c)
                separate.at(r, c) += bias[c];
        EXPECT_TRUE(bitEqual(fused, separate))
            << "fused bias m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(KernelEquivalence, MatmulAccumMatchesReferenceBitExactly)
{
    std::mt19937 gen(13);
    for (const auto &s : kShapes) {
        Tensor a({s.m, s.k}), b({s.k, s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        Tensor got({s.m, s.n});
        fillRandom(got, gen);
        Tensor want = got;
        ops::matmulAccum(a, b, got);
        ref::matmulAccumRef(a, b, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "matmulAccum m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(KernelEquivalence, MatmulTransAMatchesReferenceBitExactly)
{
    std::mt19937 gen(17);
    for (const auto &s : kShapes) {
        Tensor a({s.k, s.m}), b({s.k, s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        Tensor got, want;
        ops::matmulTransA(a, b, got);
        ref::matmulTransARef(a, b, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "matmulTransA m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(KernelEquivalence, MatmulTransBMatchesReferenceBitExactly)
{
    std::mt19937 gen(19);
    for (const auto &s : kShapes) {
        Tensor a({s.m, s.k}), b({s.n, s.k});
        fillRandom(a, gen);
        fillRandom(b, gen);
        Tensor got, want;
        ops::matmulTransB(a, b, got);
        ref::matmulTransBRef(a, b, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "matmulTransB m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(KernelEquivalence, NonFiniteInputsMatchReferenceBitExactly)
{
    // Sprinkle Inf/NaN into A and B: the blocked kernels run the same
    // multiply-add chain as the reference, so even non-finite results must
    // agree bit for bit.
    std::mt19937 gen(23);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const auto &s : kShapes) {
        Tensor a({s.m, s.k}), b({s.k, s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        a[0] = inf;
        b[s.k * s.n / 2] = nan;
        if (s.k > 1) {
            a[s.k - 1] = 0.0f;
            b[(s.k - 1) * s.n] = inf;
        }
        Tensor got, want;
        ops::matmul(a, b, got);
        ref::matmulRef(a, b, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "non-finite matmul m=" << s.m << " k=" << s.k
            << " n=" << s.n;
    }
}

TEST(KernelNonFinite, AccumPropagatesZeroTimesInfAsNaN)
{
    // Regression for the old `av == 0.0f` skip in matmulAccum: a zero
    // activation against an Inf weight must produce NaN, not leave the
    // accumulator untouched.
    Tensor a({1, 1});
    Tensor b({1, 1});
    Tensor c({1, 1});
    a[0] = 0.0f;
    b[0] = std::numeric_limits<float>::infinity();
    c[0] = 5.0f;
    ops::matmulAccum(a, b, c);
    EXPECT_TRUE(std::isnan(c[0]))
        << "0 * Inf was masked in matmulAccum: " << c[0];
}

TEST(KernelNonFinite, TransAPropagatesZeroTimesInfAsNaN)
{
    // Same regression for the old skip in matmulTransA (the dW GEMM): a
    // zero activation column against an Inf upstream gradient must yield a
    // NaN weight gradient so divergence is visible in the update.
    Tensor a({1, 1});
    Tensor b({1, 1});
    Tensor c;
    a[0] = 0.0f;
    b[0] = std::numeric_limits<float>::infinity();
    ops::matmulTransA(a, b, c);
    ASSERT_EQ(c.numel(), 1u);
    EXPECT_TRUE(std::isnan(c[0]))
        << "0 * Inf was masked in matmulTransA: " << c[0];
}

struct ConvCase {
    std::size_t n, c, h, w, k, stride, pad;
};

const ConvCase kConvCases[] = {
    {1, 1, 1, 1, 1, 1, 0},  // degenerate
    {2, 3, 5, 5, 1, 1, 0},  // 1x1, stride 1, pad 0 (MobileNet pointwise)
    {2, 3, 5, 5, 1, 2, 1},  // 1x1 with stride and padding
    {1, 2, 7, 9, 3, 1, 1},  // interior runs + clipped borders
    {2, 1, 8, 8, 3, 2, 1},  // strided
    {1, 3, 9, 7, 4, 3, 2},  // even kernel, stride 3, pad 2
    {3, 2, 6, 6, 2, 2, 0},  // no padding, even kernel
    {1, 1, 5, 5, 3, 1, 2},  // pad larger than usual: full border rows
    {2, 2, 16, 16, 3, 2, 1}, // strided 3x3 on a 16x16 plane
    {2, 3, 16, 16, 3, 1, 1}, // the zoo's conv1 and MobileNet stem
    {2, 8, 8, 8, 3, 1, 1},   // the zoo's conv2
    {1, 2, 1, 5, 3, 1, 1},   // one row: the edge taps read only padding
    {1, 2, 4, 1, 3, 1, 1},   // one column
};

TEST(KernelEquivalence, Im2colMatchesReferenceBitExactly)
{
    std::mt19937 gen(29);
    for (const auto &cc : kConvCases) {
        Tensor in({cc.n, cc.c, cc.h, cc.w});
        fillRandom(in, gen);
        // A reused buffer: im2col must overwrite every stale element.
        const std::size_t oh =
            ops::convOutExtent(cc.h, cc.k, cc.stride, cc.pad);
        const std::size_t ow =
            ops::convOutExtent(cc.w, cc.k, cc.stride, cc.pad);
        Tensor got({cc.n * cc.c * cc.k * cc.k, oh * ow},
                   std::numeric_limits<float>::quiet_NaN());
        Tensor want;
        ops::im2col(in, cc.k, cc.stride, cc.pad, got);
        ref::im2colRef(in, cc.k, cc.stride, cc.pad, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "im2col n=" << cc.n << " c=" << cc.c << " h=" << cc.h
            << " w=" << cc.w << " k=" << cc.k << " s=" << cc.stride
            << " p=" << cc.pad;
    }
}

TEST(KernelEquivalence, Col2imMatchesReferenceBitExactly)
{
    std::mt19937 gen(31);
    for (const auto &cc : kConvCases) {
        const std::size_t oh =
            ops::convOutExtent(cc.h, cc.k, cc.stride, cc.pad);
        const std::size_t ow =
            ops::convOutExtent(cc.w, cc.k, cc.stride, cc.pad);
        Tensor cols({cc.n * cc.c * cc.k * cc.k, oh * ow});
        fillRandom(cols, gen);
        Tensor got({cc.n, cc.c, cc.h, cc.w});
        Tensor want({cc.n, cc.c, cc.h, cc.w});
        ops::col2im(cols, cc.k, cc.stride, cc.pad, got);
        ref::col2imRef(cols, cc.k, cc.stride, cc.pad, want);
        EXPECT_TRUE(bitEqual(got, want))
            << "col2im n=" << cc.n << " c=" << cc.c << " h=" << cc.h
            << " w=" << cc.w << " k=" << cc.k << " s=" << cc.stride
            << " p=" << cc.pad;
    }
}

TEST(KernelEquivalence, Col2imIsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> — the transforms are transposes of
    // the same linear map, which pins the scatter geometry independently
    // of the reference implementation. Double accumulation, small
    // tolerance (the two dot products associate differently).
    std::mt19937 gen(37);
    for (const auto &cc : kConvCases) {
        const std::size_t oh =
            ops::convOutExtent(cc.h, cc.k, cc.stride, cc.pad);
        const std::size_t ow =
            ops::convOutExtent(cc.w, cc.k, cc.stride, cc.pad);
        Tensor x({cc.n, cc.c, cc.h, cc.w});
        Tensor y({cc.n * cc.c * cc.k * cc.k, oh * ow});
        fillRandom(x, gen);
        fillRandom(y, gen);
        Tensor cols;
        ops::im2col(x, cc.k, cc.stride, cc.pad, cols);
        Tensor xg({cc.n, cc.c, cc.h, cc.w});
        ops::col2im(y, cc.k, cc.stride, cc.pad, xg);
        double lhs = 0.0, rhs = 0.0;
        for (std::size_t i = 0; i < cols.numel(); ++i)
            lhs += static_cast<double>(cols[i]) * y[i];
        for (std::size_t i = 0; i < x.numel(); ++i)
            rhs += static_cast<double>(x[i]) * xg[i];
        EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0))
            << "adjoint n=" << cc.n << " c=" << cc.c << " k=" << cc.k
            << " s=" << cc.stride << " p=" << cc.pad;
    }
}

// --- Depthwise convolution. ----------------------------------------------
//
// DepthwiseConv2D runs the kernels in tensor/depthwise.h: vectorized
// across columns or, on AVX-512 hosts for 3x3 filters at stride 1, across
// 16-lane column and channel blocks. The per-element loops they replaced
// are kept in tensor/reference.h as the fold-order ground truth.

/** Overwrite a few random elements with Inf, -Inf, NaN and 0. */
void
plantNonFinite(Tensor &t, std::mt19937 &gen)
{
    const float specials[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              0.0f};
    for (float v : specials)
        t[gen() % t.numel()] = v;
}

// The zoo's two depthwise inputs at batch 1, 8 and 64, and the 16-lane
// kernels' edges at k = 3, stride 1: channel counts one under, at, one
// over and one past two 16-channel blocks, and widths one under and one
// over a 16-column block and one under two, each at pads 0 and 2. The
// last four run other kernel extents at stride 1, which take the plane
// kernels on every host: an even one, 25 taps, and two pads of k or
// more, where whole output rows and columns read only padding.
const ConvCase kDepthwiseCases[] = {
    {1, 8, 16, 16, 3, 1, 1},  {8, 8, 16, 16, 3, 1, 1},
    {64, 8, 16, 16, 3, 1, 1}, {1, 16, 8, 8, 3, 1, 1},
    {8, 16, 8, 8, 3, 1, 1},   {64, 16, 8, 8, 3, 1, 1},
    {2, 15, 5, 15, 3, 1, 0},  {2, 33, 4, 15, 3, 1, 2},
    {2, 17, 6, 17, 3, 1, 0},  {2, 16, 5, 17, 3, 1, 2},
    {1, 17, 4, 31, 3, 1, 0},  {1, 33, 3, 31, 3, 1, 2},
    {2, 17, 6, 19, 2, 1, 1},  {1, 3, 7, 18, 5, 1, 2},
    {2, 5, 4, 6, 1, 1, 1},    {1, 17, 3, 5, 2, 1, 2},
};

/**
 * One forward and backward call of `layer` on x and dy against the
 * per-element loops. dw_want and db_want carry the reference's gradient
 * chains from call to call. Returns the layer's output.
 */
Tensor
expectDepthwiseCall(fedgpo::nn::DepthwiseConv2D &layer, const ConvCase &cc,
                    const Tensor &x, const Tensor &dy, Tensor &dw_want,
                    Tensor &db_want)
{
    const Tensor &weights = *layer.params()[0];
    const Tensor &bias = *layer.params()[1];
    const Tensor y = layer.forward(x, true);
    Tensor y_want;
    ref::depthwiseForwardRef(x, weights, bias, cc.k, cc.stride, cc.pad,
                             y_want);
    EXPECT_TRUE(bitEqual(y, y_want)) << "forward";
    const Tensor &dx = layer.backward(dy);
    Tensor dx_want(x.shape());
    ref::depthwiseInputGradRef(weights, dy, cc.k, cc.stride, cc.pad,
                               dx_want);
    ref::depthwiseParamGradRef(x, dy, cc.k, cc.stride, cc.pad, dw_want,
                               db_want);
    EXPECT_TRUE(bitEqual(dx, dx_want)) << "dx";
    EXPECT_TRUE(bitEqual(*layer.grads()[0], dw_want)) << "dW";
    EXPECT_TRUE(bitEqual(*layer.grads()[1], db_want)) << "db";
    return y;
}

std::string
depthwiseLabel(const ConvCase &cc)
{
    return "depthwise n=" + std::to_string(cc.n) +
           " c=" + std::to_string(cc.c) + " h=" + std::to_string(cc.h) +
           " w=" + std::to_string(cc.w) + " k=" + std::to_string(cc.k) +
           " s=" + std::to_string(cc.stride) +
           " p=" + std::to_string(cc.pad);
}

TEST(KernelEquivalence, DepthwiseConvMatchesPerElementLoopsBitExactly)
{
    // Two forward/backward calls per geometry: the second continues the
    // filter and bias gradient chains from the first, and plants Inf/NaN
    // and zero gradients in x and dy at random.
    std::mt19937 gen(43);
    std::vector<ConvCase> cases(std::begin(kConvCases), std::end(kConvCases));
    cases.insert(cases.end(), std::begin(kDepthwiseCases),
                 std::end(kDepthwiseCases));
    for (const auto &cc : cases) {
        SCOPED_TRACE(depthwiseLabel(cc));
        fedgpo::util::Rng rng(gen());
        fedgpo::nn::DepthwiseConv2D layer(cc.c, cc.k, cc.h, cc.w,
                                          cc.stride, cc.pad, rng);
        fillRandom(*layer.params()[1], gen);
        Tensor dw_want(layer.grads()[0]->shape());
        Tensor db_want(layer.grads()[1]->shape());
        for (int call = 0; call < 2; ++call) {
            SCOPED_TRACE("call " + std::to_string(call));
            Tensor x({cc.n, cc.c, cc.h, cc.w});
            Tensor dy({cc.n, cc.c, layer.outHeight(), layer.outWidth()});
            fillRandom(x, gen);
            fillRandom(dy, gen);
            if (call == 1) {
                plantNonFinite(x, gen);
                x[0] = std::numeric_limits<float>::infinity();
                plantNonFinite(dy, gen);
                // The corner output reads x[0] unless the padding hides
                // it: 0 * Inf must reach dW there as NaN.
                dy[0] = 0.0f;
            }
            expectDepthwiseCall(layer, cc, x, dy, dw_want, db_want);
        }
    }

    // Plants where a padded tap, multiplied in instead of skipped, would
    // change a result the per-element loops leave alone:
    // - an Inf filter tap (0, 0): the outputs it cannot reach stay
    //   finite, where Inf * padding would be NaN;
    // - an Inf dy at the top-left output: the taps it cannot reach keep
    //   finite gradients, where Inf * padding would put NaN into dW;
    // - a -0 bias over +0 inputs, the filter's left column positive and
    //   the rest negative: the outputs left of column `pad` sum only -0
    //   products and stay -0, where a padded left tap would add +0.
    const ConvCase kPlantCases[] = {
        {8, 8, 16, 16, 3, 1, 1},
        {8, 16, 8, 8, 3, 1, 1},
        {1, 33, 4, 31, 3, 1, 2},
    };
    const float inf = std::numeric_limits<float>::infinity();
    for (const auto &cc : kPlantCases) {
        SCOPED_TRACE(depthwiseLabel(cc));
        fedgpo::util::Rng rng(gen());
        fedgpo::nn::DepthwiseConv2D layer(cc.c, cc.k, cc.h, cc.w,
                                          cc.stride, cc.pad, rng);
        Tensor &weights = *layer.params()[0];
        Tensor &bias = *layer.params()[1];
        const std::size_t oh = layer.outHeight(), ow = layer.outWidth();
        const std::size_t kk = cc.k * cc.k;
        Tensor dw_want(weights.shape()), db_want(bias.shape());
        Tensor x({cc.n, cc.c, cc.h, cc.w}), dy({cc.n, cc.c, oh, ow});
        auto output = [&](const Tensor &y, std::size_t img, std::size_t ch,
                          std::size_t oy, std::size_t ox) {
            return y[((img * cc.c + ch) * oh + oy) * ow + ox];
        };

        {
            SCOPED_TRACE("Inf filter tap");
            fillRandom(bias, gen);
            fillRandom(x, gen);
            fillRandom(dy, gen);
            for (std::size_t ch = 0; ch < cc.c; ++ch)
                weights[ch * kk] = inf;
            const Tensor y =
                expectDepthwiseCall(layer, cc, x, dy, dw_want, db_want);
            for (std::size_t img = 0; img < cc.n; ++img)
                for (std::size_t ch = 0; ch < cc.c; ++ch)
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            if (oy >= cc.pad && ox >= cc.pad)
                                continue;
                            ASSERT_TRUE(
                                std::isfinite(output(y, img, ch, oy, ox)))
                                << "img " << img << " ch " << ch << " ("
                                << oy << ", " << ox << ")";
                        }
        }
        {
            SCOPED_TRACE("Inf corner gradient");
            fillRandom(weights, gen);
            fillRandom(x, gen);
            fillRandom(dy, gen);
            for (std::size_t ch = 0; ch < cc.c; ++ch)
                dy[ch * oh * ow] = inf;
            expectDepthwiseCall(layer, cc, x, dy, dw_want, db_want);
            const Tensor &dw = *layer.grads()[0];
            for (std::size_t ch = 0; ch < cc.c; ++ch)
                for (std::size_t t = 0; t < kk; ++t) {
                    if (t / cc.k >= cc.pad && t % cc.k >= cc.pad)
                        continue;
                    ASSERT_TRUE(std::isfinite(dw[ch * kk + t]))
                        << "ch " << ch << " tap " << t;
                }
        }
        {
            SCOPED_TRACE("-0 bias over +0 inputs");
            for (std::size_t i = 0; i < weights.numel(); ++i)
                weights[i] = i % cc.k == 0 ? 0.5f : -0.75f;
            bias.fill(-0.0f);
            x.fill(0.0f);
            fillRandom(dy, gen);
            const Tensor y =
                expectDepthwiseCall(layer, cc, x, dy, dw_want, db_want);
            for (std::size_t img = 0; img < cc.n; ++img)
                for (std::size_t ch = 0; ch < cc.c; ++ch)
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < cc.pad; ++ox) {
                            const float v = output(y, img, ch, oy, ox);
                            ASSERT_TRUE(v == 0.0f && std::signbit(v))
                                << "img " << img << " ch " << ch << " ("
                                << oy << ", " << ox << "): " << v;
                        }
        }
    }
}

// --- Standard convolution. ------------------------------------------------
//
// Conv2D lowers onto im2col and GEMMs; these per-element loops state the
// float chain each of its results folds, independent of any layout:
// - forward: 0 + sum over ascending (ch, ky, kx) of x * W, where a padded
//   tap enters as 0 * W, then + b;
// - dW: a step chained from 0 over ascending (img, oy, ox), then dW + step;
// - db: chained over ascending (img, oy, ox);
// - dX: each pixel is 0 + the sum over ascending (oy, ox) of the terms
//   that reach it, each term a 0-started sum over ascending oc of g * W.

struct Conv2DCase {
    std::size_t n, in_c, out_c, h, w, k, stride, pad;
};

// Geometries the model zoo never runs: strides 1 and 2, pads 0 and 2,
// h != w, channel counts off the 4x8 register tile, and a 5x5 layer whose
// filter depth (11 * 25 = 275) spans more than one 256-deep p-block.
const Conv2DCase kConv2DCases[] = {
    {1, 3, 5, 7, 9, 3, 2, 0},   {3, 2, 7, 9, 6, 3, 2, 2},
    {3, 5, 9, 6, 5, 1, 1, 0},   {1, 3, 6, 7, 10, 1, 2, 0},
    {1, 7, 3, 4, 6, 1, 1, 2},   {1, 2, 3, 11, 8, 5, 2, 2},
    {3, 3, 13, 8, 7, 5, 2, 0},  {1, 6, 5, 5, 7, 5, 1, 2},
    {3, 1, 9, 6, 9, 3, 1, 0},   {1, 11, 5, 7, 6, 5, 2, 2},
};

/** x[img][ch][iy][ix], or 0 where (iy, ix) lies in the padding. */
float
paddedInput(const Tensor &in, std::size_t img, std::size_t ch, long iy,
            long ix)
{
    const long h = static_cast<long>(in.dim(2));
    const long w = static_cast<long>(in.dim(3));
    if (iy < 0 || iy >= h || ix < 0 || ix >= w)
        return 0.0f;
    return in[((img * in.dim(1) + ch) * in.dim(2) + iy) * in.dim(3) + ix];
}

void
conv2dForwardRef(const Tensor &in, const Tensor &weights, const Tensor &bias,
                 std::size_t k, std::size_t stride, std::size_t pad,
                 Tensor &out)
{
    const std::size_t n = in.dim(0), c = in.dim(1);
    const std::size_t out_c = weights.dim(1);
    const std::size_t oh = ops::convOutExtent(in.dim(2), k, stride, pad);
    const std::size_t ow = ops::convOutExtent(in.dim(3), k, stride, pad);
    out = Tensor({n, out_c, oh, ow});
    for (std::size_t img = 0; img < n; ++img)
        for (std::size_t oc = 0; oc < out_c; ++oc)
            for (std::size_t oy = 0; oy < oh; ++oy)
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    float acc = 0.0f;
                    for (std::size_t ch = 0; ch < c; ++ch)
                        for (std::size_t ky = 0; ky < k; ++ky)
                            for (std::size_t kx = 0; kx < k; ++kx) {
                                const long iy =
                                    static_cast<long>(oy * stride + ky) -
                                    static_cast<long>(pad);
                                const long ix =
                                    static_cast<long>(ox * stride + kx) -
                                    static_cast<long>(pad);
                                acc += paddedInput(in, img, ch, iy, ix) *
                                       weights.at((ch * k + ky) * k + kx, oc);
                            }
                    out[((img * out_c + oc) * oh + oy) * ow + ox] =
                        acc + bias[oc];
                }
}

/**
 * Accumulates into dw/db like the layer. grad_in is overwritten, or left
 * alone when null (the first-layer variant).
 */
void
conv2dBackwardRef(const Tensor &in, const Tensor &weights,
                  const Tensor &grad_out, std::size_t k, std::size_t stride,
                  std::size_t pad, Tensor &dw, Tensor &db, Tensor *grad_in)
{
    const std::size_t n = in.dim(0), c = in.dim(1);
    const std::size_t h = in.dim(2), w = in.dim(3);
    const std::size_t out_c = weights.dim(1);
    const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
    auto g = [&](std::size_t img, std::size_t oc, std::size_t oy,
                 std::size_t ox) {
        return grad_out[((img * out_c + oc) * oh + oy) * ow + ox];
    };

    Tensor step(dw.shape());
    for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t ky = 0; ky < k; ++ky)
            for (std::size_t kx = 0; kx < k; ++kx)
                for (std::size_t oc = 0; oc < out_c; ++oc) {
                    float acc = 0.0f;
                    for (std::size_t img = 0; img < n; ++img)
                        for (std::size_t oy = 0; oy < oh; ++oy)
                            for (std::size_t ox = 0; ox < ow; ++ox) {
                                const long iy =
                                    static_cast<long>(oy * stride + ky) -
                                    static_cast<long>(pad);
                                const long ix =
                                    static_cast<long>(ox * stride + kx) -
                                    static_cast<long>(pad);
                                acc += paddedInput(in, img, ch, iy, ix) *
                                       g(img, oc, oy, ox);
                            }
                    step.at((ch * k + ky) * k + kx, oc) = acc;
                }
    for (std::size_t i = 0; i < dw.numel(); ++i)
        dw[i] = dw[i] + step[i];
    for (std::size_t oc = 0; oc < out_c; ++oc)
        for (std::size_t img = 0; img < n; ++img)
            for (std::size_t oy = 0; oy < oh; ++oy)
                for (std::size_t ox = 0; ox < ow; ++ox)
                    db[oc] += g(img, oc, oy, ox);

    if (grad_in == nullptr)
        return;
    *grad_in = Tensor(in.shape());
    for (std::size_t img = 0; img < n; ++img)
        for (std::size_t ch = 0; ch < c; ++ch)
            for (std::size_t iy = 0; iy < h; ++iy)
                for (std::size_t ix = 0; ix < w; ++ix) {
                    float px = 0.0f;
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            // The one tap of output (oy, ox) that reads
                            // (iy, ix), if any.
                            const long ky = static_cast<long>(iy + pad) -
                                            static_cast<long>(oy * stride);
                            const long kx = static_cast<long>(ix + pad) -
                                            static_cast<long>(ox * stride);
                            if (ky < 0 || ky >= static_cast<long>(k) ||
                                kx < 0 || kx >= static_cast<long>(k))
                                continue;
                            const std::size_t p =
                                (ch * k + static_cast<std::size_t>(ky)) * k +
                                static_cast<std::size_t>(kx);
                            float term = 0.0f;
                            for (std::size_t oc = 0; oc < out_c; ++oc)
                                term += g(img, oc, oy, ox) * weights.at(p, oc);
                            px += term;
                        }
                    (*grad_in)[((img * c + ch) * h + iy) * w + ix] = px;
                }
}

TEST(KernelEquivalence, Conv2DMatchesPerElementLoopsBitExactly)
{
    // Two forward/backward calls per geometry and variant: the second
    // continues the dW and db chains from the first and plants Inf, NaN
    // and -0 in x and dy. With padding it also makes one corner weight
    // Inf, which the padded tap must turn into NaN (0 * Inf). The
    // first-layer variant skips dX and must leave dW and db unchanged.
    std::mt19937 gen(53);
    for (const auto &cc : kConv2DCases) {
        for (const bool input_grad : {true, false}) {
            SCOPED_TRACE("conv2d n=" + std::to_string(cc.n) +
                         " in_c=" + std::to_string(cc.in_c) +
                         " out_c=" + std::to_string(cc.out_c) +
                         " h=" + std::to_string(cc.h) +
                         " w=" + std::to_string(cc.w) +
                         " k=" + std::to_string(cc.k) +
                         " s=" + std::to_string(cc.stride) +
                         " p=" + std::to_string(cc.pad) +
                         (input_grad ? "" : " first-layer"));
            fedgpo::util::Rng rng(gen());
            fedgpo::nn::Conv2D layer(cc.in_c, cc.out_c, cc.k, cc.h, cc.w,
                                     cc.stride, cc.pad, rng);
            layer.setInputGrad(input_grad);
            Tensor &weights = *layer.params()[0];
            Tensor &bias = *layer.params()[1];
            fillRandom(bias, gen);
            Tensor dw_want(weights.shape()), db_want(bias.shape());
            for (int call = 0; call < 2; ++call) {
                SCOPED_TRACE("call " + std::to_string(call));
                Tensor x({cc.n, cc.in_c, cc.h, cc.w});
                fillRandom(x, gen);
                if (call == 1) {
                    plantNonFinite(x, gen);
                    x[gen() % x.numel()] = -0.0f;
                    x[0] = std::numeric_limits<float>::infinity();
                    if (cc.pad > 0)
                        weights[0] = std::numeric_limits<float>::infinity();
                }
                const Tensor &y = layer.forward(x, true);
                Tensor y_want;
                conv2dForwardRef(x, weights, bias, cc.k, cc.stride, cc.pad,
                                 y_want);
                EXPECT_TRUE(bitEqual(y, y_want)) << "forward";
                if (call == 1 && cc.pad > 0) {
                    EXPECT_TRUE(std::isnan(y[0]))
                        << "padded tap skipped: " << y[0];
                }

                Tensor dy(y_want.shape());
                fillRandom(dy, gen);
                if (call == 1) {
                    plantNonFinite(dy, gen);
                    dy[gen() % dy.numel()] = -0.0f;
                    // The corner output reads x[0] unless the padding
                    // hides it: 0 * Inf must reach dW there as NaN.
                    dy[0] = 0.0f;
                }
                const Tensor &dx = layer.backward(dy);
                Tensor dx_want;
                conv2dBackwardRef(x, weights, dy, cc.k, cc.stride, cc.pad,
                                  dw_want, db_want,
                                  input_grad ? &dx_want : nullptr);
                if (input_grad) {
                    EXPECT_TRUE(bitEqual(dx, dx_want)) << "dx";
                } else {
                    EXPECT_EQ(dx.numel(), 0u) << "first layer ran dX";
                }
                EXPECT_TRUE(bitEqual(*layer.grads()[0], dw_want)) << "dW";
                EXPECT_TRUE(bitEqual(*layer.grads()[1], db_want)) << "db";
            }
        }
    }
}

// --- Max pooling. --------------------------------------------------------
//
// MaxPool2D's branch-free window scan must pick the same value and the
// same input tap as the strict-`>` loop it replaced, kept here verbatim
// with its scatter backward as the ground truth.

/** The per-element loop: out and the flat input index of each max. */
void
maxPoolForwardRef(const Tensor &in, std::size_t k, Tensor &out,
                  std::vector<std::size_t> &argmax)
{
    const std::size_t n = in.dim(0), c = in.dim(1);
    const std::size_t h = in.dim(2), w = in.dim(3);
    const std::size_t oh = h / k, ow = w / k;
    out = Tensor({n, c, oh, ow});
    argmax.assign(n * c * oh * ow, 0);
    const float *pi = in.data();
    float *po = out.data();
    std::size_t out_idx = 0;
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *x = pi + (img * c + ch) * h * w;
            const std::size_t base = (img * c + ch) * h * w;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
                    std::size_t best = (oy * k) * w + ox * k;
                    float best_v = x[best];
                    for (std::size_t ky = 0; ky < k; ++ky) {
                        for (std::size_t kx = 0; kx < k; ++kx) {
                            std::size_t idx =
                                (oy * k + ky) * w + ox * k + kx;
                            if (x[idx] > best_v) {
                                best_v = x[idx];
                                best = idx;
                            }
                        }
                    }
                    po[out_idx] = best_v;
                    argmax[out_idx] = base + best;
                }
            }
        }
    }
}

/** The scatter backward: +0 everywhere, then dy added at each argmax. */
void
maxPoolBackwardRef(const std::vector<std::size_t> &argmax,
                   const Tensor &grad_out, const fedgpo::tensor::Shape &in,
                   Tensor &grad_in)
{
    grad_in = Tensor(in);
    for (std::size_t i = 0; i < argmax.size(); ++i)
        grad_in[argmax[i]] += grad_out[i];
}

/** A window's leading taps, in (ky, kx) order; `fill` takes the rest. */
struct WindowPattern {
    std::vector<float> head;
    float fill;
};

/**
 * Random values on a coarse grid, so exact ties are common, with NaN,
 * +-Inf and +-0 sprinkled in; then one window in three per plane gets a
 * planted pattern: NaN first and later, -0/+0 in both orders, +-Inf and
 * exact ties.
 */
void
fillPoolInput(Tensor &x, std::size_t k, std::mt19937 &gen)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {nan, inf, -inf, 0.0f, -0.0f};
    for (std::size_t i = 0; i < x.numel(); ++i) {
        const std::uint32_t r = gen();
        x[i] = r % 8 == 0 ? specials[(r >> 3) % 5]
                          : static_cast<float>(static_cast<int>(r % 17) - 8) /
                                4.0f;
    }
    const WindowPattern patterns[] = {
        {{nan, 1.0f, 2.0f}, 3.0f},     // a first NaN wins
        {{1.0f, nan, 2.0f}, 0.5f},     // a later NaN never wins
        {{nan}, nan},                  // all NaN
        {{-0.0f, 0.0f}, -1.0f},        // -0 first: -0 wins
        {{0.0f, -0.0f}, -1.0f},        // +0 first: +0 wins
        {{-1.0f, -0.0f, 0.0f}, -2.0f}, // the first of equal zeros
        {{-inf, nan}, -inf},           // -Inf, then a later NaN
        {{-inf, -inf, -3.0f}, -inf},
        {{inf, nan, inf}, 1.0f},       // +Inf tie
        {{1.0f, 3.0f, 3.0f}, 2.0f},    // exact tie: the first wins
        {{2.0f}, 2.0f},                // every tap tied
        {{-2.0f, -1.0f}, -1.0f},       // tie with the fill
    };
    const std::size_t n = x.dim(0) * x.dim(1);
    const std::size_t h = x.dim(2), w = x.dim(3);
    const std::size_t windows = (h / k) * (w / k);
    for (std::size_t plane = 0; plane < n; ++plane) {
        float *p = x.data() + plane * h * w;
        for (std::size_t win = 0; win < windows; win += 3) {
            const WindowPattern &pat =
                patterns[(plane + win / 3) % std::size(patterns)];
            const std::size_t oy = win / (w / k), ox = win % (w / k);
            for (std::size_t t = 0; t < k * k; ++t)
                p[(oy * k + t / k) * w + ox * k + t % k] =
                    t < pat.head.size() ? pat.head[t] : pat.fill;
        }
    }
}

TEST(KernelEquivalence, MaxPool2DMatchesPerElementLoopBitExactly)
{
    struct PoolCase {
        std::size_t c, k, h, w;
    };
    // The zoo's four pool inputs, then k = 3 and an odd plane (c = 1,
    // h != w) for each window.
    const PoolCase cases[] = {
        {8, 2, 16, 16}, {16, 2, 8, 8},  {16, 2, 16, 16}, {32, 2, 8, 8},
        {1, 2, 6, 10},  {4, 3, 12, 12}, {1, 3, 9, 6},
    };
    std::mt19937 gen(59);
    for (const auto &pc : cases) {
        for (const std::size_t n : {1u, 8u, 64u}) {
            SCOPED_TRACE("maxpool n=" + std::to_string(n) +
                         " c=" + std::to_string(pc.c) +
                         " k=" + std::to_string(pc.k) +
                         " h=" + std::to_string(pc.h) +
                         " w=" + std::to_string(pc.w));
            fedgpo::nn::MaxPool2D layer(pc.c, pc.k, pc.h, pc.w);
            // Two calls: the second reuses the layer's buffers.
            for (int call = 0; call < 2; ++call) {
                SCOPED_TRACE("call " + std::to_string(call));
                Tensor x({n, pc.c, pc.h, pc.w});
                fillPoolInput(x, pc.k, gen);
                const Tensor &y = layer.forward(x, call == 0);
                Tensor y_want;
                std::vector<std::size_t> argmax;
                maxPoolForwardRef(x, pc.k, y_want, argmax);
                EXPECT_TRUE(bitEqual(y, y_want)) << "forward";

                // Distinct gradients, so each one's landing tap shows the
                // argmax, with -0 and NaN among them.
                Tensor dy(y_want.shape());
                fillRandom(dy, gen);
                for (std::size_t i = 0; i < dy.numel(); i += 5)
                    dy[i] = i % 2 == 0
                                ? -0.0f
                                : std::numeric_limits<float>::quiet_NaN();
                const Tensor &dx = layer.backward(dy);
                Tensor dx_want;
                maxPoolBackwardRef(argmax, dy, x.shape(), dx_want);
                EXPECT_TRUE(bitEqual(dx, dx_want)) << "dx";
            }
        }
    }
}

// --- LSTM gate math. ------------------------------------------------------
//
// The LSTM's gates and tanh(c) must match, bit for bit, a copy of its
// per-element forward loop (std::exp and std::tanh on each element around
// the same GEMM calls) and of its BPTT backward. Per-column power-of-two
// weight scales put the pre-activations below 2^-55, subnormal, around 1,
// 22 and 88, and far past saturation; rows get +-0, subnormal, +-Inf and
// NaN inputs. Gates in (0, 1) bound |c| by the step count, so the cell
// states reach tiny, subnormal, +-0, around 1 up to 16, and NaN.

/** One sequence batch through the per-element LSTM and back. */
struct LstmRefResult {
    Tensor h, dx, dwx, dwh, db;
};

LstmRefResult
lstmRef(const Tensor &x, const Tensor &wx, const Tensor &wh, const Tensor &b,
        const Tensor &grad_out, std::size_t hidden)
{
    const auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
    const std::size_t n = x.dim(0), steps = x.dim(1), in = x.dim(2);
    const std::size_t h4 = 4 * hidden;
    std::vector<Tensor> xs(steps), gates(steps), tanh_c(steps);
    std::vector<Tensor> hs(steps + 1), cs(steps + 1);
    for (std::size_t t = 0; t < steps; ++t) {
        xs[t] = Tensor({n, in});
        gates[t] = Tensor({n, h4});
        tanh_c[t] = Tensor({n, hidden});
    }
    for (std::size_t t = 0; t <= steps; ++t) {
        hs[t] = Tensor({n, hidden});
        cs[t] = Tensor({n, hidden});
    }
    Tensor pre_x, pre_h;
    for (std::size_t t = 0; t < steps; ++t) {
        for (std::size_t r = 0; r < n; ++r) {
            const float *src = x.data() + (r * steps + t) * in;
            std::copy(src, src + in, xs[t].data() + r * in);
        }
        ops::matmul(xs[t], wx, pre_x);
        ops::matmul(hs[t], wh, pre_h);
        float *pg = gates[t].data();
        const float *px = pre_x.data();
        const float *ph = pre_h.data();
        const float *pb = b.data();
        const float *pc_prev = cs[t].data();
        float *pc = cs[t + 1].data();
        float *phn = hs[t + 1].data();
        float *ptc = tanh_c[t].data();
        for (std::size_t r = 0; r < n; ++r) {
            const std::size_t row = r * h4;
            for (std::size_t j = 0; j < h4; ++j) {
                float pre = px[row + j] + ph[row + j] + pb[j];
                if (j >= 2 * hidden && j < 3 * hidden)
                    pg[row + j] = std::tanh(pre);
                else
                    pg[row + j] = sigmoid(pre);
            }
            const float *gi = pg + row;
            const float *gf = gi + hidden;
            const float *gg = gf + hidden;
            const float *go = gg + hidden;
            for (std::size_t j = 0; j < hidden; ++j) {
                float c = gf[j] * pc_prev[r * hidden + j] + gi[j] * gg[j];
                pc[r * hidden + j] = c;
                float tc = std::tanh(c);
                ptc[r * hidden + j] = tc;
                phn[r * hidden + j] = go[j] * tc;
            }
        }
    }

    LstmRefResult out;
    out.h = hs[steps];
    out.dx = Tensor({n, steps, in});
    out.dwx = Tensor(wx.shape());
    out.dwh = Tensor(wh.shape());
    out.db = Tensor(b.shape());
    Tensor dh = grad_out, dc({n, hidden}), dpre({n, h4});
    Tensor dwx_step, dwh_step, dx_step;
    for (std::size_t t = steps; t-- > 0;) {
        const float *pg = gates[t].data();
        const float *ptc = tanh_c[t].data();
        const float *pc_prev = cs[t].data();
        const float *pdh = dh.data();
        float *pdc = dc.data();
        float *pdp = dpre.data();
        for (std::size_t r = 0; r < n; ++r) {
            const std::size_t row = r * h4;
            const float *gi = pg + row;
            const float *gf = gi + hidden;
            const float *gg = gf + hidden;
            const float *go = gg + hidden;
            float *dpi = pdp + row;
            float *dpf = dpi + hidden;
            float *dpg = dpf + hidden;
            float *dpo = dpg + hidden;
            for (std::size_t j = 0; j < hidden; ++j) {
                const std::size_t idx = r * hidden + j;
                const float tc = ptc[idx];
                const float dho = pdh[idx];
                const float d_o = dho * tc;
                float d_c = pdc[idx] + dho * go[j] * (1.0f - tc * tc);
                const float d_i = d_c * gg[j];
                const float d_f = d_c * pc_prev[idx];
                const float d_g = d_c * gi[j];
                dpi[j] = d_i * gi[j] * (1.0f - gi[j]);
                dpf[j] = d_f * gf[j] * (1.0f - gf[j]);
                dpg[j] = d_g * (1.0f - gg[j] * gg[j]);
                dpo[j] = d_o * go[j] * (1.0f - go[j]);
                pdc[idx] = d_c * gf[j];
            }
        }
        ops::matmulTransA(xs[t], dpre, dwx_step);
        out.dwx += dwx_step;
        ops::matmulTransA(hs[t], dpre, dwh_step);
        out.dwh += dwh_step;
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t j = 0; j < h4; ++j)
                out.db[j] += pdp[r * h4 + j];
        ops::matmulTransB(dpre, wx, dx_step);
        for (std::size_t r = 0; r < n; ++r) {
            float *dst = out.dx.data() + (r * steps + t) * in;
            const float *src = dx_step.data() + r * in;
            for (std::size_t j = 0; j < in; ++j)
                dst[j] += src[j];
        }
        ops::matmulTransB(dpre, wh, dh);
    }
    return out;
}

/**
 * Weights U(-2, 2) times a power of two per gate column, drawn so that
 * every gate block sees every scale; a few biases are +-0.
 */
void
fillLstmParams(Tensor &wx, Tensor &wh, Tensor &b, std::size_t hidden,
               std::mt19937 &gen)
{
    // Pre-activations come out near 5 * 2^e: subnormal, below 2^-55,
    // inside expm1f's |x| < 2^-25, about 0.7, 5, 22, 88, and saturated.
    const int exps[] = {-135, -60, -30, -3, 0, 2, 4, 20};
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    const std::size_t h4 = 4 * hidden;
    const auto scale = [&](std::size_t col) {
        const std::size_t block = col / hidden, j = col % hidden;
        return std::ldexp(1.0f, exps[(j + 3 * block) % std::size(exps)]);
    };
    for (Tensor *w : {&wx, &wh})
        for (std::size_t i = 0; i < w->numel(); ++i)
            (*w)[i] = dist(gen) * scale(i % h4);
    for (std::size_t j = 0; j < h4; ++j)
        b[j] = j % 11 == 0 ? (j % 2 == 0 ? 0.0f : -0.0f)
                           : dist(gen) * scale(j);
}

/**
 * Inputs U(-2, 2); row r of call `call` is plain, or gets an all -0 first
 * step and subnormal features, single +-Inf features, or (second call
 * only, as it turns every parameter gradient NaN) one NaN feature.
 */
void
fillLstmInput(Tensor &x, int call, std::mt19937 &gen)
{
    const std::size_t n = x.dim(0), steps = x.dim(1), in = x.dim(2);
    fillRandom(x, gen);
    const float inf = std::numeric_limits<float>::infinity();
    const float sub = std::numeric_limits<float>::denorm_min();
    for (std::size_t r = 0; r < n; ++r) {
        float *row = x.data() + r * steps * in;
        switch ((r + static_cast<std::size_t>(call)) % 4) {
          case 1:
            std::fill(row, row + in, -0.0f);
            for (std::size_t t = 1; t < steps; t += 2)
                row[t * in + t % in] = (t % 4 == 1 ? 37.0f : -5.0f) * sub;
            break;
          case 2:
            row[(steps / 2) * in] = inf;
            row[(steps - 1) * in + 1] = -inf;
            break;
          case 3:
            if (call == 1)
                row[(steps - 1) * in + 2] =
                    std::numeric_limits<float>::quiet_NaN();
            break;
          default:
            break;
        }
    }
}

TEST(KernelEquivalence, LstmMatchesPerElementLoopBitExactly)
{
    const std::size_t in = 10;
    fedgpo::util::Rng rng(1); // weights are redrawn below
    std::mt19937 gen(73);
    // Hidden 32 is the zoo's width; 20 leaves a tail past the last full
    // vector of every gate block.
    for (const std::size_t hidden : {32u, 20u}) {
        for (const std::size_t steps : {16u, 3u}) {
            for (const std::size_t n : {1u, 6u, 8u, 64u}) {
                SCOPED_TRACE("lstm hidden=" + std::to_string(hidden) +
                             " steps=" + std::to_string(steps) +
                             " n=" + std::to_string(n));
                fedgpo::nn::LSTM layer(in, hidden, steps, rng);
                const auto params = layer.params();
                fillLstmParams(*params[0], *params[1], *params[2], hidden,
                               gen);
                // Two calls: the second reuses the layer's buffers.
                for (int call = 0; call < 2; ++call) {
                    SCOPED_TRACE("call " + std::to_string(call));
                    Tensor x({n, steps, in});
                    fillLstmInput(x, call, gen);
                    Tensor dy({n, hidden});
                    fillRandom(dy, gen);
                    const LstmRefResult want = lstmRef(
                        x, *params[0], *params[1], *params[2], dy, hidden);
                    EXPECT_TRUE(bitEqual(layer.forward(x, true), want.h))
                        << "h_T";
                    layer.zeroGrad();
                    EXPECT_TRUE(bitEqual(layer.backward(dy), want.dx))
                        << "dx";
                    const auto grads = layer.grads();
                    EXPECT_TRUE(bitEqual(*grads[0], want.dwx)) << "dWx";
                    EXPECT_TRUE(bitEqual(*grads[1], want.dwh)) << "dWh";
                    EXPECT_TRUE(bitEqual(*grads[2], want.db)) << "db";
                }
            }
        }
    }
}

// --- Layer buffers across batch shapes. -----------------------------------
//
// Layers keep their output and gradient buffers across calls and reshape
// them when the batch changes. Nothing a buffer held at another batch may
// reach a result: one instance fed batches that shrink and grow again must
// match, at every call, a fresh instance with the same weights bit for
// bit. Growing back after a shrink reuses a buffer that last held a
// larger batch; the repeated last batch reuses one as the previous call
// left it.

const std::size_t kBatchSequence[] = {8, 6, 64, 1, 8, 8};

using LayerFactory = std::function<std::unique_ptr<fedgpo::nn::Layer>()>;

/** `layer` with every parameter drawn from one fixed stream. */
std::unique_ptr<fedgpo::nn::Layer>
withFixedParams(std::unique_ptr<fedgpo::nn::Layer> layer)
{
    std::mt19937 gen(67);
    for (Tensor *p : layer->params())
        fillRandom(*p, gen);
    return layer;
}

/**
 * Feed one instance from `make` the batches of kBatchSequence, each
 * [n, item...], and hold its output, input gradient and parameter
 * gradients against a fresh instance's at every call.
 */
void
expectMatchesFreshAcrossBatches(const LayerFactory &make,
                                const fedgpo::tensor::Shape &item,
                                bool input_grad)
{
    std::mt19937 gen(61);
    const auto reused = make();
    reused->setInputGrad(input_grad);
    for (const std::size_t n : kBatchSequence) {
        SCOPED_TRACE(reused->name() + " batch " + std::to_string(n) +
                     (input_grad ? "" : " first-layer"));
        const auto fresh = make();
        fresh->setInputGrad(input_grad);
        fedgpo::tensor::Shape shape = item;
        shape.insert(shape.begin(), n);
        Tensor x(shape);
        fillRandom(x, gen);
        const Tensor &y = reused->forward(x, true);
        EXPECT_TRUE(bitEqual(y, fresh->forward(x, true))) << "forward";
        Tensor dy(y.shape());
        fillRandom(dy, gen);
        reused->zeroGrad();
        EXPECT_TRUE(bitEqual(reused->backward(dy), fresh->backward(dy)))
            << "dx";
        const auto grads = reused->grads(), want = fresh->grads();
        for (std::size_t i = 0; i < grads.size(); ++i)
            EXPECT_TRUE(bitEqual(*grads[i], *want[i])) << "param grad " << i;
    }
}

TEST(LayerBuffers, ShapeChangesMatchFreshLayersBitExactly)
{
    namespace nn = fedgpo::nn;
    fedgpo::util::Rng rng(1); // weights are redrawn by withFixedParams
    for (const bool input_grad : {false, true}) {
        expectMatchesFreshAcrossBatches(
            [&] {
                return withFixedParams(
                    std::make_unique<nn::Conv2D>(3, 8, 3, 8, 8, 1, 1, rng));
            },
            {3, 8, 8}, input_grad);
        expectMatchesFreshAcrossBatches(
            [&] {
                return withFixedParams(
                    std::make_unique<nn::Conv2D>(8, 16, 1, 8, 8, 1, 0, rng));
            },
            {8, 8, 8}, input_grad);
    }
    expectMatchesFreshAcrossBatches(
        [&] {
            return withFixedParams(
                std::make_unique<nn::DepthwiseConv2D>(8, 3, 8, 8, 1, 1, rng));
        },
        {8, 8, 8}, true);
    expectMatchesFreshAcrossBatches(
        [] { return std::make_unique<nn::MaxPool2D>(8, 2, 8, 8); },
        {8, 8, 8}, true);
    expectMatchesFreshAcrossBatches(
        [&] {
            return withFixedParams(std::make_unique<nn::Dense>(48, 10, rng));
        },
        {48}, true);
    expectMatchesFreshAcrossBatches(
        [&] {
            return withFixedParams(std::make_unique<nn::LSTM>(12, 16, 5, rng));
        },
        {5, 12}, true);
    expectMatchesFreshAcrossBatches(
        [] { return std::make_unique<nn::ReLU>(); }, {4, 6, 6}, true);
    expectMatchesFreshAcrossBatches(
        [] { return std::make_unique<nn::Tanh>(); }, {4, 6, 6}, true);
    expectMatchesFreshAcrossBatches(
        [] { return std::make_unique<nn::Flatten>(); }, {3, 4, 4}, true);

    // The loss keeps its probabilities and gradient the same way.
    std::mt19937 gen(71);
    nn::SoftmaxCrossEntropy reused;
    for (const std::size_t n : kBatchSequence) {
        SCOPED_TRACE("loss batch " + std::to_string(n));
        nn::SoftmaxCrossEntropy fresh;
        Tensor logits({n, 10});
        fillRandom(logits, gen);
        std::vector<int> labels(n);
        for (int &y : labels)
            y = static_cast<int>(gen() % 10);
        EXPECT_EQ(reused.forward(logits, labels),
                  fresh.forward(logits, labels));
        EXPECT_EQ(reused.correct(), fresh.correct());
        EXPECT_TRUE(bitEqual(reused.probs(), fresh.probs())) << "probs";
        EXPECT_TRUE(bitEqual(reused.backward(), fresh.backward())) << "grad";
    }
}

// --- First-layer rule. ----------------------------------------------------
//
// Model switches off its first layer's input gradient, which nothing
// reads: the CNN's stem convolution runs no col2im and the LSTM no
// per-step dx GEMM.

std::uint64_t
kernelCallsInOneTrainStep(fedgpo::models::Workload workload,
                          const char *span)
{
    namespace obs = fedgpo::obs;
    obs::ScopedLevel scoped(obs::Level::Profile);
    obs::MetricsRegistry::instance().reset();
    auto model = fedgpo::models::buildModel(workload, 5);
    fedgpo::tensor::Shape shape = fedgpo::models::sampleShape(workload);
    shape.insert(shape.begin(), 4);
    Tensor x(shape);
    std::mt19937 gen(47);
    fillRandom(x, gen);
    const std::vector<int> labels = {0, 1, 2, 3};
    model->trainStep(x, labels);
    std::uint64_t calls = 0;
    for (const auto &s : obs::MetricsRegistry::instance().snapshot().spans)
        if (s.name == span)
            calls = s.count;
    obs::MetricsRegistry::instance().reset();
    return calls;
}

TEST(KernelCalls, CnnStepRunsCol2imForTheSecondConvOnly)
{
    EXPECT_EQ(kernelCallsInOneTrainStep(
                  fedgpo::models::Workload::CnnMnist, "kernel.col2im"),
              1u);
}

TEST(KernelCalls, LstmStepSkipsThePerStepInputGemm)
{
    // 16 hidden-gradient GEMMs plus the dense head's input gradient; the
    // 16 per-step input GEMMs of the first layer are gone.
    EXPECT_EQ(kernelCallsInOneTrainStep(
                  fedgpo::models::Workload::LstmShakespeare,
                  "kernel.matmul_trans_b"),
              17u);
}

// --- FEDGPO_FAST_MATH mode. ---------------------------------------------
//
// The fast kernels promise a bounded deviation from the exact product,
// not bit-exactness: every output element is a tree of correctly rounded
// FMA terms, so |c_ij - exact| <= C * k * eps * sum_p |a_ip * b_pj| for a
// small constant C. The harness computes the exact product and the error
// bound in double and sweeps random shapes plus the tile edges specific
// to the fast path (8-wide pair strips, odd depths, 16-wide zmm strips,
// tall 8-row tile ladders).

/** RAII toggle; fast mode must never leak into the bit-exact tests. */
struct FastMathScope
{
    explicit FastMathScope(bool on) { fedgpo::tensor::setFastMath(on); }
    ~FastMathScope() { fedgpo::tensor::setFastMath(false); }
};

/**
 * Check c against the double-precision product `exact` with the matching
 * magnitude accumulation `mag`; k is the reduction depth and `base` an
 * optional exactly-added vector (bias or accumulate seed).
 */
::testing::AssertionResult
withinFastBound(const Tensor &c, const std::vector<double> &exact,
                const std::vector<double> &mag, std::size_t k)
{
    const double eps = 5.9604644775390625e-8; // 2^-24
    for (std::size_t i = 0; i < c.numel(); ++i) {
        const double tol =
            2.0 * static_cast<double>(k + 8) * eps * mag[i] + 1e-30;
        const double err = std::abs(static_cast<double>(c[i]) - exact[i]);
        if (!(err <= tol))
            return ::testing::AssertionFailure()
                   << "element " << i << ": got " << c[i] << " want "
                   << exact[i] << " err " << err << " tol " << tol;
    }
    return ::testing::AssertionSuccess();
}

// Shapes that hit every fast tile class: the 8-column pair path (n == 8)
// with even/odd depths and edge rows, the 16-wide zmm strips, mixed
// strip ladders, and tall extents (m up to 2048) that run long ladders
// of 8-row tiles down one strip.
const GemmShape kFastShapes[] = {
    {1, 1, 1},    {4, 3, 8},    {9, 3, 8},     {16, 4, 8},
    {100, 27, 8}, {33, 17, 33}, {13, 8, 16},   {64, 64, 16},
    {512, 16, 32}, {2048, 27, 8}, {300, 40, 16}, {12, 512, 20},
};

TEST(FastMath, MatmulWithinErrorBound)
{
    FastMathScope fast(true);
    std::mt19937 gen(41);
    for (const auto &s : kFastShapes) {
        Tensor a({s.m, s.k}), b({s.k, s.n}), bias({s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        fillRandom(bias, gen);
        std::vector<double> exact(s.m * s.n, 0.0), mag(s.m * s.n, 0.0);
        for (std::size_t i = 0; i < s.m; ++i)
            for (std::size_t p = 0; p < s.k; ++p)
                for (std::size_t j = 0; j < s.n; ++j) {
                    const double t = static_cast<double>(a.at(i, p)) *
                                     static_cast<double>(b.at(p, j));
                    exact[i * s.n + j] += t;
                    mag[i * s.n + j] += std::abs(t);
                }
        Tensor c;
        ops::matmul(a, b, c);
        EXPECT_TRUE(withinFastBound(c, exact, mag, s.k))
            << "fast matmul m=" << s.m << " k=" << s.k << " n=" << s.n;

        std::vector<double> exact_b = exact, mag_b = mag;
        for (std::size_t i = 0; i < s.m; ++i)
            for (std::size_t j = 0; j < s.n; ++j) {
                exact_b[i * s.n + j] += bias[j];
                mag_b[i * s.n + j] += std::abs(bias[j]);
            }
        Tensor cb;
        ops::matmulBias(a, b, bias, cb);
        EXPECT_TRUE(withinFastBound(cb, exact_b, mag_b, s.k))
            << "fast matmulBias m=" << s.m << " k=" << s.k << " n=" << s.n;

        Tensor acc({s.m, s.n});
        fillRandom(acc, gen);
        std::vector<double> exact_a = exact, mag_a = mag;
        for (std::size_t i = 0; i < acc.numel(); ++i) {
            exact_a[i] += acc[i];
            mag_a[i] += std::abs(acc[i]);
        }
        ops::matmulAccum(a, b, acc);
        EXPECT_TRUE(withinFastBound(acc, exact_a, mag_a, s.k))
            << "fast matmulAccum m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(FastMath, TransAWithinErrorBound)
{
    FastMathScope fast(true);
    std::mt19937 gen(43);
    for (const auto &s : kFastShapes) {
        // The transA reduction runs over the row extent: a is [k, m].
        Tensor a({s.k, s.m}), b({s.k, s.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        std::vector<double> exact(s.m * s.n, 0.0), mag(s.m * s.n, 0.0);
        for (std::size_t p = 0; p < s.k; ++p)
            for (std::size_t i = 0; i < s.m; ++i)
                for (std::size_t j = 0; j < s.n; ++j) {
                    const double t = static_cast<double>(a.at(p, i)) *
                                     static_cast<double>(b.at(p, j));
                    exact[i * s.n + j] += t;
                    mag[i * s.n + j] += std::abs(t);
                }
        Tensor c;
        ops::matmulTransA(a, b, c);
        EXPECT_TRUE(withinFastBound(c, exact, mag, s.k))
            << "fast transA m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(FastMath, TransBWithinErrorBound)
{
    FastMathScope fast(true);
    std::mt19937 gen(47);
    for (const auto &s : kFastShapes) {
        Tensor a({s.m, s.k}), b({s.n, s.k});
        fillRandom(a, gen);
        fillRandom(b, gen);
        std::vector<double> exact(s.m * s.n, 0.0), mag(s.m * s.n, 0.0);
        for (std::size_t i = 0; i < s.m; ++i)
            for (std::size_t j = 0; j < s.n; ++j)
                for (std::size_t p = 0; p < s.k; ++p) {
                    const double t = static_cast<double>(a.at(i, p)) *
                                     static_cast<double>(b.at(j, p));
                    exact[i * s.n + j] += t;
                    mag[i * s.n + j] += std::abs(t);
                }
        Tensor c;
        ops::matmulTransB(a, b, c);
        EXPECT_TRUE(withinFastBound(c, exact, mag, s.k))
            << "fast transB m=" << s.m << " k=" << s.k << " n=" << s.n;
    }
}

TEST(FastMath, DefaultModeIsBitExactAfterToggle)
{
    // Flipping fast math on and back off must leave the default kernels
    // exactly as they were — the dispatch reads the mode per call, and
    // nothing (panel contents, dispatch state) may leak across the
    // toggle.
    std::mt19937 gen(53);
    Tensor a({33, 17}), b({17, 33});
    fillRandom(a, gen);
    fillRandom(b, gen);
    // Pin the starting mode so the test also holds when the suite runs
    // with FEDGPO_FAST_MATH=1 in the environment (CI's fast-math job).
    FastMathScope default_mode(false);
    Tensor before;
    ops::matmul(a, b, before);
    {
        FastMathScope fast(true);
        Tensor during;
        ops::matmul(a, b, during);
    }
    Tensor after, want;
    ops::matmul(a, b, after);
    ref::matmulRef(a, b, want);
    EXPECT_TRUE(bitEqual(after, want));
    EXPECT_TRUE(bitEqual(after, before));
}

TEST(FastMathNonFinite, ZeroTimesInfStillNaNUnderFastMode)
{
    // The FMA kernels must not resurrect the zero-skip bug: 0 * Inf has
    // to poison the output in fast mode too, or divergence rejection
    // goes blind whenever FEDGPO_FAST_MATH is on.
    FastMathScope fast(true);
    Tensor a({1, 1}), b({1, 1}), c({1, 1});
    a[0] = 0.0f;
    b[0] = std::numeric_limits<float>::infinity();
    c[0] = 5.0f;
    ops::matmulAccum(a, b, c);
    EXPECT_TRUE(std::isnan(c[0]))
        << "0 * Inf was masked by the fast matmulAccum: " << c[0];

    Tensor ta({1, 1}), tb({1, 1}), tc;
    ta[0] = 0.0f;
    tb[0] = std::numeric_limits<float>::infinity();
    ops::matmulTransA(ta, tb, tc);
    ASSERT_EQ(tc.numel(), 1u);
    EXPECT_TRUE(std::isnan(tc[0]))
        << "0 * Inf was masked by the fast matmulTransA: " << tc[0];
}

TEST(FastMathNonFinite, PairPathPropagatesAndNeverFabricatesNaN)
{
    // n == 8 with an odd depth exercises the p-paired kernel's masked
    // tail. The zero padding must contribute exact 0*0 terms: an Inf in
    // the tail column times a finite B row stays Inf (a fabricated
    // 0*Inf would turn it into NaN), while a genuine 0*Inf pair in the
    // data must still come out NaN.
    FastMathScope fast(true);
    const std::size_t m = 16, k = 3, n = 8;
    Tensor a({m, k}), b({k, n});
    std::mt19937 gen(59);
    fillRandom(a, gen);
    for (std::size_t j = 0; j < n; ++j) {
        b.at(0, j) = 1.0f;
        b.at(1, j) = 1.0f;
        b.at(2, j) = 1.0f;
    }
    for (std::size_t i = 0; i < m; ++i) {
        a.at(i, 0) = 1.0f;
        a.at(i, 1) = 1.0f;
    }
    a.at(3, 2) = std::numeric_limits<float>::infinity();
    Tensor c;
    ops::matmul(a, b, c);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(std::isinf(c.at(3, j)) && c.at(3, j) > 0)
            << "tail Inf fabricated a NaN at j=" << j << ": " << c.at(3, j);
        EXPECT_TRUE(std::isfinite(c.at(0, j)))
            << "finite row poisoned at j=" << j << ": " << c.at(0, j);
    }

    // Genuine 0 * Inf inside the paired body.
    a.at(3, 2) = 0.0f;
    b.at(2, 5) = std::numeric_limits<float>::infinity();
    a.at(5, 2) = 0.0f;
    ops::matmul(a, b, c);
    EXPECT_TRUE(std::isnan(c.at(5, 5)))
        << "0 * Inf was masked by the pair kernel: " << c.at(5, 5);
}

// --- Concurrent fast GEMMs (TSan-covered: each worker packs into its own
// thread-local panel; any sharing is a data race this test exposes). ----

TEST(KernelThreaded, ConcurrentIndependentGemmsStayIsolated)
{
    // Worker threads running *different* GEMMs concurrently must not
    // share pack panels: fan the same multiplication out across the pool
    // and check every result. Run under TSan, this is the panel-aliasing
    // regression test.
    FastMathScope fast(true);
    std::mt19937 gen(67);
    Tensor a({96, 31}), b({31, 24});
    fillRandom(a, gen);
    fillRandom(b, gen);
    Tensor want;
    ops::matmul(a, b, want);
    fedgpo::runtime::ThreadPool pool(4);
    std::vector<Tensor> results(16);
    pool.parallelFor(results.size(), [&](std::size_t i, std::size_t) {
        ops::matmul(a, b, results[i]);
    });
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(bitEqual(results[i], want)) << "task " << i;
}

// --- Pack-panel lifecycle. ----------------------------------------------

TEST(PackPanel, ShrinksAfterSustainedSmallStreak)
{
    // A one-off huge GEMM must not pin a huge panel for the rest of the
    // process: after kPanelShrinkStreak consecutive acquisitions needing
    // less than half the capacity, the panel shrinks to the streak's own
    // high-water mark.
    namespace detail = fedgpo::tensor::detail;
    detail::packPanelReset();
    std::mt19937 gen(71);
    Tensor big_a({4, 6000}), big_b({6000, 8});
    fillRandom(big_a, gen);
    fillRandom(big_b, gen);
    Tensor c;
    ops::matmul(big_a, big_b, c);
    const std::size_t big_cap = detail::packPanelCapacity();
    EXPECT_GE(big_cap, 6000u * 8u);

    Tensor small_a({4, 16}), small_b({16, 8});
    fillRandom(small_a, gen);
    fillRandom(small_b, gen);
    for (std::size_t i = 0; i <= detail::kPanelShrinkStreak; ++i)
        ops::matmul(small_a, small_b, c);
    EXPECT_LT(detail::packPanelCapacity(), big_cap)
        << "panel never shrank after a sustained small-shape streak";
    EXPECT_GE(detail::packPanelCapacity(), 16u * 8u);

    // A recurring large shape resets the streak: capacity must be stable
    // (allocation-free) across an alternating workload.
    ops::matmul(big_a, big_b, c);
    const std::size_t stable_cap = detail::packPanelCapacity();
    for (int i = 0; i < 10; ++i) {
        ops::matmul(small_a, small_b, c);
        ops::matmul(big_a, big_b, c);
    }
    EXPECT_EQ(detail::packPanelCapacity(), stable_cap);

    // Exactly half is not small. With AVX-512, 8 rows by 16 columns pack
    // 16-wide strips (k * 16 floats) and 4 rows pack 8-wide ones (k * 8),
    // so a batch crossing 8 rows must keep the panel, not shrink and
    // regrow it. Without AVX-512 both pack k * 8.
    detail::packPanelReset();
    Tensor rows8({8, 64}), rows4({4, 64}), wide_b({64, 16});
    fillRandom(rows8, gen);
    fillRandom(rows4, gen);
    fillRandom(wide_b, gen);
    ops::matmul(rows8, wide_b, c);
    const std::size_t wide_cap = detail::packPanelCapacity();
    for (std::size_t i = 0; i <= detail::kPanelShrinkStreak; ++i)
        ops::matmul(rows4, wide_b, c);
    EXPECT_EQ(detail::packPanelCapacity(), wide_cap)
        << "a need of exactly half the panel shrank it";
}

} // namespace
