/**
 * @file
 * Unit tests for the Tensor container and kernels in tensor/ops.h, the
 * shape contracts at the tensor-op and Conv2D boundary, and the gate
 * math in tensor/vmath.h against the host libm.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/vmath.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fedgpo {
namespace tensor {
namespace {

TEST(Shape, NumelAndString)
{
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24u);
    EXPECT_EQ(shapeNumel({}), 1u);
    EXPECT_EQ(shapeToString({2, 3}), "[2, 3]");
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6u);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor)
{
    Tensor t({4}, 2.5f);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, DataConstructorValidatesSize)
{
    EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
    EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
                 util::FatalError);
}

TEST(Tensor, At2d)
{
    Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    EXPECT_EQ(t.at(0, 0), 1.0f);
    EXPECT_EQ(t.at(1, 2), 6.0f);
    t.at(1, 0) = 9.0f;
    EXPECT_EQ(t[3], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    t.reshape({3, 2});
    EXPECT_EQ(t.dim(0), 3u);
    EXPECT_EQ(t[4], 5.0f);
    EXPECT_THROW(t.reshape({4, 2}), util::FatalError);
}

TEST(Tensor, ResizeZeroFillsANewShapeAndKeepsTheBuffer)
{
    auto allZero = [](const Tensor &t) {
        for (std::size_t i = 0; i < t.numel(); ++i)
            if (t[i] != 0.0f || std::signbit(t[i]))
                return false;
        return true;
    };
    Tensor t({4, 6}, 1.5f);
    const float *buf = t.data();
    // The current shape leaves the data alone.
    t.resize({4, 6});
    EXPECT_EQ(t.data(), buf);
    EXPECT_EQ(t[23], 1.5f);
    // A smaller shape keeps the buffer and zero-fills...
    t.resize(Shape{2, 3, 2});
    EXPECT_EQ(t.shape(), (Shape{2, 3, 2}));
    EXPECT_EQ(t.data(), buf);
    EXPECT_TRUE(allZero(t));
    // ...and so does growing back within the capacity, or a new shape of
    // the same size, whatever the buffer held.
    t.fill(-0.0f);
    t.resize({4, 6});
    EXPECT_EQ(t.data(), buf);
    EXPECT_EQ(t.numel(), 24u);
    EXPECT_TRUE(allZero(t));
    t.fill(2.0f);
    t.resize({6, 4});
    EXPECT_EQ(t.data(), buf);
    EXPECT_TRUE(allZero(t));
    // Past the capacity the buffer grows, zero-filled like Tensor(shape).
    t.fill(3.0f);
    t.resize({5, 6});
    EXPECT_EQ(t.shape(), (Shape{5, 6}));
    EXPECT_TRUE(allZero(t));
    // An empty tensor takes its first shape the same way.
    Tensor e;
    e.resize({3});
    EXPECT_EQ(e.shape(), (Shape{3}));
    EXPECT_TRUE(allZero(e));
}

TEST(Tensor, ElementwiseArithmetic)
{
    Tensor a({3}, std::vector<float>{1, 2, 3});
    Tensor b({3}, std::vector<float>{10, 20, 30});
    a += b;
    EXPECT_EQ(a[2], 33.0f);
    a -= b;
    EXPECT_EQ(a[2], 3.0f);
    a *= 2.0f;
    EXPECT_EQ(a[0], 2.0f);
    a.addScaled(b, 0.1f);
    EXPECT_NEAR(a[1], 6.0f, 1e-6);
}

TEST(Tensor, SumAndNorm)
{
    Tensor t({4}, std::vector<float>{1, -2, 3, -4});
    EXPECT_DOUBLE_EQ(t.sum(), -2.0);
    EXPECT_DOUBLE_EQ(t.squaredNorm(), 30.0);
}

TEST(Matmul, KnownProduct)
{
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    Tensor c;
    matmul(a, b, c);
    ASSERT_EQ(c.shape(), (Shape{2, 2}));
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, TransAMatchesExplicitTranspose)
{
    util::Rng rng(3);
    Tensor a({4, 3});
    Tensor b({4, 5});
    for (std::size_t i = 0; i < a.numel(); ++i)
        a[i] = static_cast<float>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < b.numel(); ++i)
        b[i] = static_cast<float>(rng.uniform(-1, 1));
    // Explicit transpose of a.
    Tensor at({3, 4});
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            at.at(j, i) = a.at(i, j);
    Tensor expect, got;
    matmul(at, b, expect);
    matmulTransA(a, b, got);
    ASSERT_EQ(expect.shape(), got.shape());
    for (std::size_t i = 0; i < expect.numel(); ++i)
        EXPECT_NEAR(expect[i], got[i], 1e-5);
}

TEST(Matmul, TransBMatchesExplicitTranspose)
{
    util::Rng rng(4);
    Tensor a({3, 4});
    Tensor b({5, 4});
    for (std::size_t i = 0; i < a.numel(); ++i)
        a[i] = static_cast<float>(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < b.numel(); ++i)
        b[i] = static_cast<float>(rng.uniform(-1, 1));
    Tensor bt({4, 5});
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            bt.at(j, i) = b.at(i, j);
    Tensor expect, got;
    matmul(a, bt, expect);
    matmulTransB(a, b, got);
    ASSERT_EQ(expect.shape(), got.shape());
    for (std::size_t i = 0; i < expect.numel(); ++i)
        EXPECT_NEAR(expect[i], got[i], 1e-5);
}

TEST(Matmul, AccumAddsOntoExisting)
{
    Tensor a({1, 2}, std::vector<float>{1, 1});
    Tensor b({2, 1}, std::vector<float>{2, 3});
    Tensor c({1, 1}, std::vector<float>{10});
    matmulAccum(a, b, c);
    EXPECT_EQ(c[0], 15.0f);
}

TEST(ConvExtent, Formula)
{
    EXPECT_EQ(convOutExtent(16, 3, 1, 1), 16u);
    EXPECT_EQ(convOutExtent(16, 3, 1, 0), 14u);
    EXPECT_EQ(convOutExtent(7, 3, 2, 0), 3u);
    EXPECT_EQ(convOutExtent(8, 2, 2, 0), 4u);
}

TEST(Im2col, IdentityKernelReproducesInput)
{
    // 1x1 kernel, stride 1, no pad: each channel's tap row is the
    // channel's plane, so the columns are the input as it is.
    Tensor x({1, 2, 3, 3});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(i);
    Tensor cols;
    im2col(x, 1, 1, 0, cols);
    ASSERT_EQ(cols.shape(), (Shape{2, 9}));
    // Row c, column (y*3+x) should be input channel c at (y, x).
    EXPECT_EQ(cols.at(0, 0), 0.0f);
    EXPECT_EQ(cols.at(1, 0), 9.0f);
    EXPECT_EQ(cols.at(0, 8), 8.0f);
    EXPECT_EQ(cols.at(1, 8), 17.0f);
}

TEST(Im2col, PaddingProducesZeros)
{
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
    Tensor cols;
    im2col(x, 3, 1, 1, cols);
    ASSERT_EQ(cols.shape(), (Shape{9, 4}));
    // Top-left output position (column 0): the first row/col of the 3x3
    // window is padding.
    EXPECT_EQ(cols.at(0, 0), 0.0f);
    EXPECT_EQ(cols.at(4, 0), 1.0f);  // center tap = pixel (0,0)
    EXPECT_EQ(cols.at(5, 0), 2.0f);
    EXPECT_EQ(cols.at(8, 0), 4.0f);
    // The center tap's row is the whole image.
    EXPECT_EQ(cols.at(4, 3), 4.0f);
}

TEST(Im2colCol2im, AdjointProperty)
{
    // col2im is the transpose of im2col as a linear map:
    // <im2col(x), y> == <x, col2im(y)> for all x, y.
    util::Rng rng(5);
    Tensor x({2, 2, 5, 5});
    for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1, 1));
    Tensor cols;
    im2col(x, 3, 2, 1, cols);
    Tensor y(cols.shape());
    for (std::size_t i = 0; i < y.numel(); ++i)
        y[i] = static_cast<float>(rng.uniform(-1, 1));
    Tensor back({2, 2, 5, 5});
    col2im(y, 3, 2, 1, back);

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols[i]) * y[i];
    for (std::size_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * back[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

// --- Shape contracts. ------------------------------------------------------
//
// Caller-supplied shapes are checked in every build, Release included.
// Each mismatch below is one an unchecked kernel would run without
// reading past a buffer, returning a silently wrong result.

TEST(TensorContract, MatmulRejectsMismatchedInnerExtents)
{
    // Unchecked, this multiplies by B's first 3 rows into a [2, 5] C.
    Tensor a({2, 3}, 1.0f), b({4, 5}, 1.0f), c;
    EXPECT_THROW(matmul(a, b, c), util::FatalError);
}

TEST(TensorContract, MatmulVariantsRejectMismatchedOperands)
{
    Tensor c;
    Tensor acc({3, 5});
    EXPECT_THROW(matmulBias(Tensor({2, 3}), Tensor({3, 5}), Tensor({7}), c),
                 util::FatalError);
    EXPECT_THROW(matmulAccum(Tensor({2, 3}), Tensor({3, 5}), acc),
                 util::FatalError);
    EXPECT_THROW(matmulTransA(Tensor({3, 2}), Tensor({4, 5}), c),
                 util::FatalError);
    EXPECT_THROW(matmulTransB(Tensor({2, 3}), Tensor({5, 4}), c),
                 util::FatalError);
}

TEST(TensorContract, RawGemmRejectsShortLeadingDimensions)
{
    std::vector<float> a(64, 1.0f), b(64, 1.0f), c(64, 0.0f);
    // A [2, 4] cannot have rows 3 floats apart.
    EXPECT_THROW(gemm(a.data(), 3, b.data(), 4, false, c.data(), 4, 2, 4, 4,
                      false),
                 util::FatalError);
    // B^T [4, 5] stored [5, 4] needs ldb >= 4.
    EXPECT_THROW(gemm(a.data(), 4, b.data(), 3, true, c.data(), 5, 2, 5, 4,
                      false),
                 util::FatalError);
    // A [k, m] = [4, 6] for A^T needs lda >= 6.
    EXPECT_THROW(gemmTransA(a.data(), 5, b.data(), 2, c.data(), 2, 6, 2, 4),
                 util::FatalError);
}

TEST(TensorContract, ElementwiseOpsRejectMismatchedShapes)
{
    // Unchecked, the first three read past the shorter operand.
    Tensor a({2, 3}, 1.0f);
    const Tensor shorter({2, 2}, 1.0f), transposed({3, 2}, 1.0f);
    EXPECT_THROW(a += shorter, util::FatalError);
    EXPECT_THROW(a -= shorter, util::FatalError);
    EXPECT_THROW(a.addScaled(shorter, 0.5f), util::FatalError);
    EXPECT_THROW(a += transposed, util::FatalError);
}

TEST(TensorContract, ConvTransformsRejectMismatchedShapes)
{
    // A 5x5 kernel does not fit a 2x2 image without padding.
    EXPECT_THROW(convOutExtent(2, 5, 1, 0), util::FatalError);
    // [1, 1, 4, 4] at k 3, pad 1 needs columns [9, 16].
    Tensor grad({1, 1, 4, 4});
    EXPECT_THROW(col2im(Tensor({20, 16}), 3, 1, 1, grad), util::FatalError);
    Tensor cols;
    EXPECT_THROW(im2col(Tensor({1, 4, 4}), 3, 1, 1, cols), util::FatalError);
}

TEST(TensorContract, AtRejectsIndicesOutsideTheShape)
{
    // Unchecked, (1, 3) reads row 2's first element and (2, 0) past the
    // buffer.
    Tensor t({2, 3}, 1.0f);
    const Tensor &ct = t;
    EXPECT_THROW(t.at(1, 3), util::FatalError);
    EXPECT_THROW(t.at(2, 0), util::FatalError);
    EXPECT_THROW(ct.at(0, 3), util::FatalError);
    EXPECT_THROW(Tensor({6}).at(0, 0), util::FatalError);
    t.at(1, 2) = 4.0f;
    EXPECT_EQ(ct.at(1, 2), 4.0f);
}

TEST(TensorContract, Conv2DRejectsInputOfTheWrongShape)
{
    util::Rng rng(3);
    nn::Conv2D layer(3, 4, 3, 8, 8, 1, 1, rng);
    // Unchecked, a 2-channel input returns a [2, 4, 8, 8] output.
    EXPECT_THROW(layer.forward(Tensor({2, 2, 8, 8}), true), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 3, 10, 10}), true),
                 util::FatalError);
}

TEST(TensorContract, Conv2DRejectsOutputGradientOfTheWrongShape)
{
    util::Rng rng(4);
    nn::Conv2D layer(3, 4, 3, 8, 8, 1, 1, rng);
    const Tensor x({2, 3, 8, 8}, 0.5f);
    layer.forward(x, true);
    EXPECT_THROW(layer.backward(Tensor({2, 4, 10, 10})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({2, 5, 8, 8})), util::FatalError);
}

// --- Gate math. -------------------------------------------------------------
//
// tanhArray and sigmoidArray promise the host libm's bits: the oracle is
// std::tanh and std::exp themselves, one call per element, compared as
// bit patterns with NaN payloads included.

using ArrayFn = void (*)(const float *, float *, std::size_t);
using ScalarFn = float (*)(float);

float
tanhLibm(float x)
{
    return std::tanh(x);
}

float
sigmoidLibm(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

float
fromBits(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

std::uint32_t
toBits(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

std::string
hexBits(std::uint32_t bits)
{
    char buf[11];
    std::snprintf(buf, sizeof(buf), "0x%08x", bits);
    return buf;
}

/**
 * `kernel` over `in`, out of place and in place, against `oracle` bit for
 * bit; the 16 floats past the output must stay untouched.
 */
::testing::AssertionResult
matchesLibm(ArrayFn kernel, ScalarFn oracle, const std::vector<float> &in)
{
    const std::size_t n = in.size();
    const float guard = fromBits(0x7fa5a5a5);
    std::vector<float> out(n + 16, guard), inplace(in);
    inplace.resize(n + 16, guard);
    kernel(in.data(), out.data(), n);
    kernel(inplace.data(), inplace.data(), n);
    for (std::size_t i = 0; i < n + 16; ++i) {
        const std::uint32_t want =
            i < n ? toBits(oracle(in[i])) : toBits(guard);
        for (const float got : {out[i], inplace[i]}) {
            if (toBits(got) != want)
                return ::testing::AssertionFailure()
                       << "n " << n << ", element " << i << ": input "
                       << hexBits(i < n ? toBits(in[i]) : 0u) << " gave "
                       << hexBits(toBits(got)) << ", want " << hexBits(want);
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * Every 4099th bit pattern; +-64 ulps around each threshold, with either
 * sign; +-0, +-Inf and NaNs with payloads of either sign.
 */
std::vector<float>
vmathInputs(const std::vector<std::uint32_t> &thresholds)
{
    std::vector<float> in;
    for (std::uint64_t bits = 0; bits < (1ull << 32); bits += 4099)
        in.push_back(fromBits(static_cast<std::uint32_t>(bits)));
    for (const std::uint32_t t : thresholds)
        for (std::uint32_t bits = t - 64; bits <= t + 64; ++bits)
            for (const std::uint32_t sign : {0u, 0x80000000u})
                in.push_back(fromBits(bits | sign));
    for (const std::uint32_t bits :
         {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
          0xffc00000u, 0x7f800001u, 0xff812345u, 0x7fc0deadu, 0x7fffffffu,
          0xffffffffu, 0x00000001u, 0x807fffffu})
        in.push_back(fromBits(bits));
    return in;
}

/** The tanh input where expm1f's k (of 2|x|) reaches `k`. */
std::uint32_t
tanhInputWhereKReaches(int k)
{
    return toBits(static_cast<float>((k - 0.5) * std::log(2.0) / 2.0));
}

std::vector<std::uint32_t>
tanhThresholds()
{
    // tanhf's branches on |x|.
    std::vector<std::uint32_t> t = {0x24000000, 0x3f800000, 0x41b00000};
    // expm1f's on its argument 2|x|, so at |x| = T/2 (exponent minus 1).
    for (const std::uint32_t e : {0x33000000u, 0x3eb17218u, 0x3f851592u,
                                  0x4195b844u})
        t.push_back(e - 0x00800000);
    // Its reconstruction's k crossing 22/23 and 56/57.
    t.push_back(tanhInputWhereKReaches(23));
    t.push_back(tanhInputWhereKReaches(57));
    return t;
}

std::vector<std::uint32_t>
sigmoidThresholds()
{
    // expf's top 12 bits 0x42a/0x42b, its overflow bound and its two
    // underflow bounds (the sigmoid feeds it -x; both signs are tested).
    return {0x42b00000, 0x42b17218, 0x42cff1b4, 0x42ce8ed0};
}

TEST(VectorMath, TanhMatchesLibmBitExactly)
{
    SCOPED_TRACE(std::string("path ") + vmathPath());
    const std::vector<float> in = vmathInputs(tanhThresholds());
    EXPECT_TRUE(matchesLibm(tanhArray, tanhLibm, in));
    // The last n inputs end in the specials, so every tail length puts
    // NaN, Inf and zeros in the partial block.
    for (std::size_t n = 0; n <= 40; ++n)
        EXPECT_TRUE(matchesLibm(tanhArray, tanhLibm,
                                std::vector<float>(in.end() - n, in.end())));
}

TEST(VectorMath, SigmoidMatchesLibmBitExactly)
{
    SCOPED_TRACE(std::string("path ") + vmathPath());
    const std::vector<float> in = vmathInputs(sigmoidThresholds());
    EXPECT_TRUE(matchesLibm(sigmoidArray, sigmoidLibm, in));
    // The last n inputs end in the specials, so every tail length puts
    // NaN, Inf and zeros in the partial block.
    for (std::size_t n = 0; n <= 40; ++n)
        EXPECT_TRUE(matchesLibm(sigmoidArray, sigmoidLibm,
                                std::vector<float>(in.end() - n, in.end())));
}

/**
 * All 2^32 inputs through `kernel`, in blocks of 4096 on a few threads;
 * returns the number of mismatches against `oracle` and prints the first.
 */
std::uint64_t
mismatchesOnEveryFloat(ArrayFn kernel, ScalarFn oracle)
{
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    constexpr std::uint64_t kBlock = 4096;
    std::vector<std::uint64_t> bad(threads, 0);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
            std::vector<float> in(kBlock), out(kBlock);
            for (std::uint64_t b0 = w * kBlock; b0 < (1ull << 32);
                 b0 += threads * kBlock) {
                for (std::uint64_t i = 0; i < kBlock; ++i)
                    in[i] = fromBits(static_cast<std::uint32_t>(b0 + i));
                kernel(in.data(), out.data(), kBlock);
                for (std::uint64_t i = 0; i < kBlock; ++i) {
                    const std::uint32_t want = toBits(oracle(in[i]));
                    if (toBits(out[i]) != want && bad[w]++ == 0)
                        std::printf("input 0x%08x gave 0x%08x, want 0x%08x\n",
                                    toBits(in[i]), toBits(out[i]), want);
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    std::uint64_t total = 0;
    for (const std::uint64_t b : bad)
        total += b;
    return total;
}

// Every float through both kernels, about 45 s each on 4 threads. Run it
// with --gtest_also_run_disabled_tests after touching tensor/vmath.cc or
// on a new libm.
TEST(VectorMath, DISABLED_MatchLibmOnEveryFloat)
{
    std::printf("vmath path: %s\n", vmathPath());
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(mismatchesOnEveryFloat(tanhArray, tanhLibm), 0u) << "tanh";
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_EQ(mismatchesOnEveryFloat(sigmoidArray, sigmoidLibm), 0u)
        << "sigmoid";
    const auto t2 = std::chrono::steady_clock::now();
    const std::chrono::duration<double> tanh_s = t1 - t0, sigmoid_s = t2 - t1;
    std::printf("tanh %.1f s, sigmoid %.1f s\n", tanh_s.count(),
                sigmoid_s.count());
}

} // namespace
} // namespace tensor
} // namespace fedgpo
