/**
 * @file
 * Behavioural unit tests for the NN layers and the Model container
 * (shapes, censuses, FLOP accounting, parameter (de)serialization).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/model.h"
#include "nn/pool2d.h"
#include "nn/sgd.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Dense, OutputShapeAndBias)
{
    util::Rng rng(1);
    Dense layer(3, 2, rng);
    // Zero the weights so output == bias.
    layer.params()[0]->zero();
    (*layer.params()[1])[0] = 1.5f;
    (*layer.params()[1])[1] = -0.5f;
    Tensor x({4, 3}, 1.0f);
    const Tensor &y = layer.forward(x, false);
    ASSERT_EQ(y.shape(), (Shape{4, 2}));
    EXPECT_EQ(y.at(0, 0), 1.5f);
    EXPECT_EQ(y.at(3, 1), -0.5f);
}

TEST(Dense, InfWeightAgainstZeroInputYieldsNaNNotZero)
{
    // Non-finite contract of the kernel layer: 0 * Inf is NaN, never a
    // silently skipped term, so a diverged weight is visible in the
    // activations even when the corresponding input happens to be zero.
    util::Rng rng(41);
    Dense layer(2, 2, rng);
    (*layer.params()[0])[0] = std::numeric_limits<float>::infinity();
    Tensor x({1, 2}, 0.0f);
    const Tensor &y = layer.forward(x, false);
    EXPECT_TRUE(std::isnan(y.at(0, 0)))
        << "Inf weight masked by zero input: " << y.at(0, 0);
}

TEST(DepthwiseConv2D, ZeroUpstreamGradAgainstInfInputPropagatesNaN)
{
    // Regression for the old `g == 0.0f` skip in the depthwise backward:
    // a zero upstream gradient against an Inf activation must put NaN in
    // the weight gradient, not leave it untouched.
    util::Rng rng(42);
    DepthwiseConv2D layer(1, 3, 4, 4, 1, 1, rng);
    Tensor x({1, 1, 4, 4}, 0.0f);
    x[0] = std::numeric_limits<float>::infinity();
    layer.forward(x, true);
    Tensor dy({1, 1, 4, 4}, 0.0f);
    layer.backward(dy);
    const Tensor &dw = *layer.grads()[0];
    bool any_nan = false;
    for (std::size_t i = 0; i < dw.numel(); ++i)
        any_nan = any_nan || std::isnan(dw[i]);
    EXPECT_TRUE(any_nan)
        << "0 * Inf masked by the depthwise zero-gradient skip";
}

TEST(Dense, ParamCountAndKind)
{
    util::Rng rng(2);
    Dense layer(10, 7, rng);
    EXPECT_EQ(layer.paramCount(), 10u * 7u + 7u);
    EXPECT_EQ(layer.kind(), LayerKind::Dense);
    EXPECT_EQ(layer.flopsPerSample(), 2ull * 70 + 7);
}

TEST(Dense, GradAccumulatesAcrossBackward)
{
    util::Rng rng(3);
    Dense layer(2, 2, rng);
    Tensor x({1, 2}, 1.0f);
    Tensor dy({1, 2}, 1.0f);
    layer.zeroGrad();
    layer.forward(x, true);
    layer.backward(dy);
    Tensor g1 = *layer.grads()[0];
    layer.forward(x, true);
    layer.backward(dy);
    Tensor g2 = *layer.grads()[0];
    for (std::size_t i = 0; i < g1.numel(); ++i)
        EXPECT_NEAR(g2[i], 2.0f * g1[i], 1e-6);
}

TEST(Conv2D, OutputGeometry)
{
    util::Rng rng(4);
    Conv2D same(3, 8, 3, 16, 16, 1, 1, rng);
    EXPECT_EQ(same.outHeight(), 16u);
    EXPECT_EQ(same.outWidth(), 16u);
    Conv2D strided(3, 8, 3, 15, 15, 2, 0, rng);
    EXPECT_EQ(strided.outHeight(), 7u);
    Tensor x({2, 3, 16, 16});
    const Tensor &y = same.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 8, 16, 16}));
}

TEST(Conv2D, KnownConvolution)
{
    util::Rng rng(5);
    Conv2D layer(1, 1, 3, 3, 3, 1, 0, rng);
    // Set the kernel to an averaging filter and bias to zero.
    Tensor &w = *layer.params()[0];
    for (std::size_t i = 0; i < w.numel(); ++i)
        w[i] = 1.0f;
    layer.params()[1]->zero();
    Tensor x({1, 1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i)
        x[i] = static_cast<float>(i + 1);
    const Tensor &y = layer.forward(x, false);
    ASSERT_EQ(y.numel(), 1u);
    EXPECT_EQ(y[0], 45.0f);  // sum 1..9
}

TEST(Conv2D, FlopsScaleWithFilters)
{
    util::Rng rng(6);
    Conv2D small(1, 4, 3, 8, 8, 1, 1, rng);
    Conv2D big(1, 8, 3, 8, 8, 1, 1, rng);
    EXPECT_GT(big.flopsPerSample(), small.flopsPerSample());
    EXPECT_EQ(big.kind(), LayerKind::Conv);
}

TEST(DepthwiseConv2D, PreservesChannelCount)
{
    util::Rng rng(7);
    DepthwiseConv2D layer(5, 3, 8, 8, 1, 1, rng);
    Tensor x({3, 5, 8, 8});
    const Tensor &y = layer.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{3, 5, 8, 8}));
    EXPECT_EQ(layer.paramCount(), 5u * 9u + 5u);
}

TEST(DepthwiseConv2D, ChannelsAreIndependent)
{
    util::Rng rng(8);
    DepthwiseConv2D layer(2, 3, 4, 4, 1, 1, rng);
    Tensor x({1, 2, 4, 4});
    // Only channel 0 carries signal.
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = 1.0f;
    layer.params()[1]->zero();
    const Tensor &y = layer.forward(x, false);
    // Channel 1 output must be exactly zero (bias-free, zero input).
    for (std::size_t i = 16; i < 32; ++i)
        EXPECT_EQ(y[i], 0.0f);
}

TEST(MaxPool, SelectsMaxAndRoutesGradient)
{
    MaxPool2D layer(1, 2, 4, 4);
    Tensor x({1, 1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i);
    const Tensor &y = layer.forward(x, false);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_EQ(y[0], 5.0f);
    EXPECT_EQ(y[3], 15.0f);
    Tensor dy({1, 1, 2, 2}, 1.0f);
    const Tensor &dx = layer.backward(dy);
    EXPECT_EQ(dx[5], 1.0f);
    EXPECT_EQ(dx[0], 0.0f);
    EXPECT_EQ(dx[15], 1.0f);
}

TEST(MaxPool, RejectsIndivisibleExtent)
{
    EXPECT_THROW(MaxPool2D(1, 3, 8, 8), util::FatalError);
}

TEST(MaxPool, RejectsZeroWindowAndPlanesBeyond32BitOffsets)
{
    EXPECT_THROW(MaxPool2D(1, 0, 8, 8), util::FatalError);
    // The argmax is a 32-bit offset within a plane.
    EXPECT_THROW(MaxPool2D(1, 2, 65536, 65536), util::FatalError);
    EXPECT_NO_THROW(MaxPool2D(1, 1, 65535, 65537)); // 2^32 - 1 elements
}

TEST(ReLU, ClampsNegatives)
{
    ReLU layer;
    Tensor x({1, 4}, std::vector<float>{-1.0f, 0.0f, 0.5f, 2.0f});
    const Tensor &y = layer.forward(x, false);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 0.5f);
    EXPECT_EQ(y[3], 2.0f);
}

TEST(Flatten, RoundTripShapes)
{
    Flatten layer;
    Tensor x({2, 3, 4, 5});
    const Tensor &y = layer.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 60}));
    Tensor dy({2, 60});
    const Tensor &dx = layer.backward(dy);
    EXPECT_EQ(dx.shape(), (Shape{2, 3, 4, 5}));
}

TEST(Flatten, CopiesValuesAcrossBatchSizes)
{
    // The output and input-gradient buffers are reused while the shape
    // holds and rebuilt when it changes; the values are copied either way.
    Flatten layer;
    for (std::size_t n : {2u, 2u, 3u}) {
        Tensor x({n, 3, 2, 2});
        for (std::size_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(i) + 0.5f;
        const Tensor &y = layer.forward(x, false);
        ASSERT_EQ(y.shape(), (Shape{n, 12}));
        Tensor dy({n, 12});
        for (std::size_t i = 0; i < dy.numel(); ++i) {
            EXPECT_EQ(y[i], x[i]);
            dy[i] = -x[i];
        }
        const Tensor &dx = layer.backward(dy);
        ASSERT_EQ(dx.shape(), x.shape());
        for (std::size_t i = 0; i < dx.numel(); ++i)
            EXPECT_EQ(dx[i], -x[i]);
    }
}

TEST(LSTM, OutputIsLastHidden)
{
    util::Rng rng(9);
    LSTM layer(3, 6, 4, rng);
    Tensor x({2, 4, 3});
    const Tensor &y = layer.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 6}));
    EXPECT_EQ(layer.kind(), LayerKind::Recurrent);
    EXPECT_EQ(layer.paramCount(), 3u * 24u + 6u * 24u + 24u);
}

TEST(LSTM, ZeroInputGivesBiasDrivenOutput)
{
    util::Rng rng(10);
    LSTM layer(2, 3, 2, rng);
    Tensor x({1, 2, 2});
    const Tensor &y1 = layer.forward(x, false);
    Tensor first = y1;
    const Tensor &y2 = layer.forward(x, false);
    for (std::size_t i = 0; i < first.numel(); ++i)
        EXPECT_EQ(first[i], y2[i]) << "forward must be deterministic";
}

TEST(Loss, PerfectPredictionHasLowLoss)
{
    SoftmaxCrossEntropy loss;
    Tensor logits({2, 3});
    logits.at(0, 1) = 20.0f;
    logits.at(1, 2) = 20.0f;
    double l = loss.forward(logits, {1, 2});
    EXPECT_LT(l, 1e-6);
    EXPECT_EQ(loss.correct(), 2u);
}

TEST(Loss, UniformLogitsGiveLogC)
{
    SoftmaxCrossEntropy loss;
    Tensor logits({1, 10});
    double l = loss.forward(logits, {4});
    EXPECT_NEAR(l, std::log(10.0), 1e-6);
}

TEST(Model, CensusCountsKinds)
{
    util::Rng rng(11);
    Model m;
    m.add(std::make_unique<Conv2D>(1, 2, 3, 8, 8, 1, 1, rng));
    m.add(std::make_unique<ReLU>());
    m.add(std::make_unique<DepthwiseConv2D>(2, 3, 8, 8, 1, 1, rng));
    m.add(std::make_unique<Flatten>());
    m.add(std::make_unique<Dense>(128, 4, rng));
    auto census = m.census();
    EXPECT_EQ(census.conv, 2u);   // conv + depthwise both count as Conv
    EXPECT_EQ(census.dense, 1u);
    EXPECT_EQ(census.recurrent, 0u);
}

TEST(Model, FirstLayerSkipsInputGradient)
{
    // Nothing reads the first layer's input gradient, so Model switches
    // it off there and nowhere else; a standalone layer computes it.
    util::Rng rng(16);
    Model m;
    m.add(std::make_unique<Dense>(4, 3, rng));
    m.add(std::make_unique<ReLU>());
    m.add(std::make_unique<Dense>(3, 2, rng));
    EXPECT_FALSE(m.layer(0).inputGrad());
    EXPECT_TRUE(m.layer(1).inputGrad());
    EXPECT_TRUE(m.layer(2).inputGrad());
    EXPECT_TRUE(Dense(4, 3, rng).inputGrad());
}

/**
 * Two identically seeded layers, one with the input gradient switched
 * off: after two accumulating steps their parameter gradients must be
 * bit-identical, and the switched-off backward returns an empty tensor.
 */
template <typename L, typename... Args>
void
expectInputGradSwitchIsInert(const Shape &in_shape, const Shape &out_shape,
                             Args... args)
{
    util::Rng rng_on(17), rng_off(17), data(18);
    L on(args..., rng_on);
    L off(args..., rng_off);
    off.setInputGrad(false);
    Tensor x(in_shape), dy(out_shape);
    for (int step = 0; step < 2; ++step) {
        for (std::size_t i = 0; i < x.numel(); ++i)
            x[i] = static_cast<float>(data.uniform(-1.0, 1.0));
        for (std::size_t i = 0; i < dy.numel(); ++i)
            dy[i] = static_cast<float>(data.uniform(-1.0, 1.0));
        on.forward(x, true);
        off.forward(x, true);
        EXPECT_EQ(on.backward(dy).shape(), in_shape);
        EXPECT_EQ(off.backward(dy).numel(), 0u);
    }
    const std::vector<Tensor *> g_on = on.grads(), g_off = off.grads();
    ASSERT_EQ(g_on.size(), g_off.size());
    for (std::size_t t = 0; t < g_on.size(); ++t) {
        ASSERT_EQ(g_on[t]->shape(), g_off[t]->shape());
        EXPECT_EQ(std::memcmp(g_on[t]->data(), g_off[t]->data(),
                              g_on[t]->numel() * sizeof(float)),
                  0)
            << on.name() << " grad " << t;
    }
}

TEST(Layer, InputGradSwitchLeavesParameterGradientsBitIdentical)
{
    expectInputGradSwitchIsInert<Conv2D>(
        {2, 2, 6, 6}, {2, 3, 6, 6}, std::size_t{2}, std::size_t{3},
        std::size_t{3}, std::size_t{6}, std::size_t{6}, std::size_t{1},
        std::size_t{1});
    expectInputGradSwitchIsInert<DepthwiseConv2D>(
        {2, 2, 6, 6}, {2, 2, 6, 6}, std::size_t{2}, std::size_t{3},
        std::size_t{6}, std::size_t{6}, std::size_t{1}, std::size_t{1});
    expectInputGradSwitchIsInert<Dense>({4, 5}, {4, 3}, std::size_t{5},
                                        std::size_t{3});
    expectInputGradSwitchIsInert<LSTM>({2, 3, 5}, {2, 4}, std::size_t{5},
                                       std::size_t{4}, std::size_t{3});
}

TEST(Model, SaveLoadRoundTrip)
{
    util::Rng rng(12);
    Model m;
    m.add(std::make_unique<Dense>(4, 3, rng));
    m.add(std::make_unique<Dense>(3, 2, rng));
    auto saved = m.saveParams();
    EXPECT_EQ(saved.size(), m.paramCount());

    // Perturb, then restore.
    for (Tensor *p : m.params())
        p->fill(0.0f);
    m.loadParams(saved);
    auto again = m.saveParams();
    EXPECT_EQ(saved, again);
}

TEST(Model, LoadRejectsWrongLength)
{
    util::Rng rng(13);
    Model m;
    m.add(std::make_unique<Dense>(2, 2, rng));
    std::vector<float> bad(3, 0.0f);
    EXPECT_THROW(m.loadParams(bad), util::FatalError);
    std::vector<float> long_vec(100, 0.0f);
    EXPECT_THROW(m.loadParams(long_vec), util::FatalError);
}

TEST(Model, TrainFlopsIsTripleForward)
{
    util::Rng rng(14);
    Model m;
    m.add(std::make_unique<Dense>(8, 4, rng));
    EXPECT_EQ(m.trainFlopsPerSample(), 3ull * m.forwardFlopsPerSample());
}

TEST(Model, ParamBytesIsFloatSized)
{
    util::Rng rng(15);
    Model m;
    m.add(std::make_unique<Dense>(8, 4, rng));
    EXPECT_EQ(m.paramBytes(), m.paramCount() * sizeof(float));
}

TEST(Sgd, PlainStepMovesAgainstGradient)
{
    util::Rng rng(16);
    Model m;
    m.add(std::make_unique<Dense>(1, 1, rng));
    Tensor &w = *m.params()[0];
    Tensor &g = *m.grads()[0];
    w[0] = 1.0f;
    g[0] = 2.0f;
    Sgd sgd(0.1);
    sgd.step(m);
    EXPECT_NEAR(w[0], 0.8f, 1e-6);
}

TEST(Sgd, MomentumAccumulatesVelocity)
{
    util::Rng rng(17);
    Model m;
    m.add(std::make_unique<Dense>(1, 1, rng));
    Tensor &w = *m.params()[0];
    Tensor &g = *m.grads()[0];
    w[0] = 0.0f;
    Sgd sgd(1.0, 0.5);
    g[0] = 1.0f;
    sgd.step(m);  // v=1, w=-1
    EXPECT_NEAR(w[0], -1.0f, 1e-6);
    sgd.step(m);  // v=1.5, w=-2.5
    EXPECT_NEAR(w[0], -2.5f, 1e-6);
}

TEST(Model, EvaluateReportsAccuracy)
{
    util::Rng rng(18);
    Model m;
    m.add(std::make_unique<Dense>(2, 2, rng));
    // Identity-ish weights: class = argmax of input.
    Tensor &w = *m.params()[0];
    w.zero();
    w.at(0, 0) = 5.0f;
    w.at(1, 1) = 5.0f;
    m.params()[1]->zero();
    Tensor x({2, 2}, std::vector<float>{1, 0, 0, 1});
    auto r = m.evaluate(x, {0, 1});
    EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
    auto wrong = m.evaluate(x, {1, 0});
    EXPECT_DOUBLE_EQ(wrong.accuracy, 0.0);
}

// --- Always-on shape contracts. While they were asserts, a Release build
// read past a mis-shaped input or gradient (Flatten wrote past its input
// gradient), and DepthwiseConv2D's and Dense's backward dereferenced a
// null input when called before forward.

TEST(LayerContract, MaxPool2DRejectsMisShapedInputAndGradient)
{
    MaxPool2D layer(2, 2, 8, 8);
    EXPECT_THROW(layer.backward(Tensor({2, 2, 4, 4})), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 1, 8, 8}), true),
                 util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 2, 8}), true), util::FatalError);
    const Tensor x({2, 2, 8, 8}, 0.5f);
    layer.forward(x, true);
    EXPECT_THROW(layer.backward(Tensor({1, 2, 4, 4})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({2, 2, 8, 8})), util::FatalError);
    EXPECT_NO_THROW(layer.backward(Tensor({2, 2, 4, 4})));
}

TEST(LayerContract, DepthwiseConv2DRejectsMisShapedInputAndGradient)
{
    util::Rng rng(5);
    DepthwiseConv2D layer(3, 3, 8, 8, 1, 1, rng);
    EXPECT_THROW(layer.backward(Tensor({2, 3, 8, 8})), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 2, 8, 8}), true),
                 util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 3, 10, 10}), true),
                 util::FatalError);
    const Tensor x({2, 3, 8, 8}, 0.5f);
    layer.forward(x, true);
    EXPECT_THROW(layer.backward(Tensor({1, 3, 8, 8})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({2, 3, 4, 4})), util::FatalError);
    EXPECT_NO_THROW(layer.backward(Tensor({2, 3, 8, 8})));
}

TEST(LayerContract, LstmRejectsMisShapedInputAndGradient)
{
    util::Rng rng(6);
    LSTM layer(4, 5, 3, rng);
    EXPECT_THROW(layer.backward(Tensor({2, 5})), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 3, 2}), true), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 12}), true), util::FatalError);
    const Tensor x({2, 3, 4}, 0.5f);
    layer.forward(x, true);
    EXPECT_THROW(layer.backward(Tensor({1, 5})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({2, 4})), util::FatalError);
    EXPECT_NO_THROW(layer.backward(Tensor({2, 5})));
}

TEST(LayerContract, FlattenRejectsEmptyBatchAndMisShapedGradient)
{
    Flatten layer;
    EXPECT_THROW(layer.backward(Tensor({2, 12})), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({0, 3}), true), util::FatalError);
    const Tensor x({2, 3, 4}, 0.5f);
    layer.forward(x, true);
    EXPECT_THROW(layer.backward(Tensor({2, 24})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({2, 6})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({24})), util::FatalError);
    const Tensor &dx = layer.backward(Tensor({2, 12}, 1.0f));
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(LayerContract, DenseRejectsMisShapedInputAndGradient)
{
    util::Rng rng(7);
    Dense layer(4, 5, rng);
    EXPECT_THROW(layer.backward(Tensor({2, 5})), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 3}), true), util::FatalError);
    EXPECT_THROW(layer.forward(Tensor({2, 4, 1}), true), util::FatalError);
    const Tensor x({2, 4}, 0.5f);
    layer.forward(x, true);
    EXPECT_THROW(layer.backward(Tensor({1, 5})), util::FatalError);
    EXPECT_THROW(layer.backward(Tensor({2, 4})), util::FatalError);
    EXPECT_NO_THROW(layer.backward(Tensor({2, 5})));
}

// Until these were checked in every build, a Release build read past the
// logits row (a label equal to the class count, or a negative one reaching
// into the previous row), wrote past the loss gradient, and read past the
// activations' cached output.

TEST(LayerContract, SoftmaxCrossEntropyRejectsLabelsOutOfRangeOrMiscounted)
{
    SoftmaxCrossEntropy loss;
    const Tensor logits({2, 3}, 0.5f);
    EXPECT_THROW(loss.forward(logits, {0, 3}), util::FatalError);
    EXPECT_THROW(loss.forward(logits, {-1, 0}), util::FatalError);
    EXPECT_THROW(loss.forward(logits, {0}), util::FatalError);
    EXPECT_THROW(loss.forward(logits, {0, 1, 2}), util::FatalError);
    EXPECT_NO_THROW(loss.forward(logits, {0, 2}));
}

TEST(LayerContract, SoftmaxCrossEntropyRejectsLogitsNotRank2)
{
    SoftmaxCrossEntropy loss;
    EXPECT_THROW(loss.forward(Tensor({6}), {0}), util::FatalError);
    EXPECT_THROW(loss.forward(Tensor({2, 3, 1}), {0, 1}), util::FatalError);
}

TEST(LayerContract, LossAndActivationsRejectBackwardBeforeForward)
{
    SoftmaxCrossEntropy loss;
    EXPECT_THROW(loss.backward(), util::FatalError);
    ReLU relu;
    EXPECT_THROW(relu.backward(Tensor({2, 3})), util::FatalError);
    Tanh tanh_layer;
    EXPECT_THROW(tanh_layer.backward(Tensor({2, 3})), util::FatalError);
}

TEST(LayerContract, ActivationsRejectMisShapedGradientAnd0dInput)
{
    ReLU relu;
    Tanh tanh_layer;
    for (Layer *layer : {static_cast<Layer *>(&relu),
                         static_cast<Layer *>(&tanh_layer)}) {
        SCOPED_TRACE(layer->name());
        EXPECT_THROW(layer->forward(Tensor(Shape{}), true), util::FatalError);
        layer->forward(Tensor({2, 3}, 0.5f), true);
        EXPECT_THROW(layer->backward(Tensor({2, 24})), util::FatalError);
        EXPECT_THROW(layer->backward(Tensor({3, 2})), util::FatalError);
        EXPECT_THROW(layer->backward(Tensor({2, 3, 1})), util::FatalError);
        EXPECT_NO_THROW(layer->backward(Tensor({2, 3}, 1.0f)));
    }
}

} // namespace
} // namespace nn
} // namespace fedgpo
