/**
 * @file
 * Steady-state allocation tests for the NN hot path.
 *
 * The training loop calls forward/backward thousands of times per round;
 * the layers promise that after a warm-up call with a given batch shape,
 * subsequent calls reuse every scratch buffer (persistent dw_step members,
 * the LSTM step caches, the GEMM pack panel) and perform zero heap
 * allocations. This binary replaces global operator new/delete with a
 * counting shim and asserts exactly that.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "nn/lstm.h"
#include "nn/pool2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using fedgpo::tensor::Tensor;
namespace nn = fedgpo::nn;

std::uint64_t
allocsDuring(const std::function<void()> &fn)
{
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(SteadyStateAllocs, MatmulReusesOutputAndPackPanel)
{
    Tensor a({16, 24}), b({24, 12}), c;
    a.fill(0.5f);
    b.fill(0.25f);
    fedgpo::tensor::matmul(a, b, c); // warm-up: sizes c, grows the panel
    const std::uint64_t n =
        allocsDuring([&] { fedgpo::tensor::matmul(a, b, c); });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, DenseForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(21);
    nn::Dense layer(24, 12, rng);
    Tensor x({8, 24}, 0.5f);
    Tensor dy({8, 12}, 1.0f);
    layer.forward(x, true);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, Conv2DForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(22);
    nn::Conv2D layer(3, 8, 3, 10, 10, 2, 1, rng);
    Tensor x({4, 3, 10, 10}, 0.5f);
    layer.forward(x, true);
    Tensor dy({4, 8, layer.outHeight(), layer.outWidth()}, 1.0f);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, DepthwiseConv2DForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(25);
    nn::DepthwiseConv2D layer(4, 3, 8, 8, 1, 1, rng);
    Tensor x({4, 4, 8, 8}, 0.5f);
    layer.forward(x, true);
    Tensor dy({4, 4, layer.outHeight(), layer.outWidth()}, 1.0f);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, MaxPool2DForwardBackwardAllocationFree)
{
    nn::MaxPool2D layer(3, 2, 8, 8);
    Tensor x({4, 3, 8, 8}, 0.5f);
    Tensor dy({4, 3, 4, 4}, 1.0f);
    layer.forward(x, true);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, FlattenForwardBackwardAllocationFree)
{
    nn::Flatten layer;
    Tensor x({4, 3, 4, 4}, 0.5f);
    Tensor dy({4, 48}, 1.0f);
    layer.forward(x, true);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, LstmForwardBackwardAllocationFree)
{
    fedgpo::util::Rng rng(23);
    nn::LSTM layer(12, 16, 6, rng);
    Tensor x({4, 6, 12}, 0.5f);
    Tensor dy({4, 16}, 1.0f);
    layer.forward(x, true);
    layer.backward(dy);
    const std::uint64_t n = allocsDuring([&] {
        layer.forward(x, true);
        layer.backward(dy);
    });
    EXPECT_EQ(n, 0u);
}

TEST(SteadyStateAllocs, LstmReallocatesOnlyOnBatchShapeChange)
{
    fedgpo::util::Rng rng(24);
    nn::LSTM layer(8, 8, 4, rng);
    Tensor x4({4, 4, 8}, 0.5f);
    Tensor x2({2, 4, 8}, 0.5f);
    layer.forward(x4, true);
    // Shrinking the batch rebuilds the caches...
    const std::uint64_t shrink =
        allocsDuring([&] { layer.forward(x2, true); });
    EXPECT_GT(shrink, 0u);
    // ...but repeating the same shape is free again.
    const std::uint64_t repeat =
        allocsDuring([&] { layer.forward(x2, true); });
    EXPECT_EQ(repeat, 0u);
}

} // namespace
