/**
 * @file
 * Steady-state allocation tests for the NN hot path.
 *
 * The training loop calls forward/backward thousands of times per round,
 * at batch sizes that change from step to step. The layers promise that
 * after a warm-up at the largest batch, calls at that batch or any
 * smaller one reuse every scratch buffer (persistent dw_step members, the
 * LSTM step caches, the GEMM pack panel) and perform zero heap
 * allocations, and so does a whole model's training and evaluation. This
 * binary replaces global operator new/delete with a counting shim and
 * asserts exactly that.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv2d.h"
#include "nn/lstm.h"
#include "nn/model.h"
#include "nn/pool2d.h"
#include "nn/sgd.h"
#include "tensor/gemm.h"
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

TEST(SteadyStateAllocs, LstmAllocatesOnlyWhenTheBatchGrows)
{
    fedgpo::util::Rng rng(24);
    nn::LSTM layer(8, 8, 4, rng);
    auto step = [&](std::size_t n) {
        const Tensor x({n, 4, 8}, 0.5f);
        const Tensor dy({n, 8}, 1.0f);
        return allocsDuring([&] {
            layer.forward(x, true);
            layer.backward(dy);
        });
    };
    step(4);
    // Shrinking the batch keeps every cache...
    EXPECT_EQ(step(2), 0u);
    // ...growing past the largest batch seen allocates...
    EXPECT_GT(step(8), 0u);
    // ...and repeating it, or going back down, is free again.
    EXPECT_EQ(step(8), 0u);
    EXPECT_EQ(step(4), 0u);
}

TEST(SteadyStateAllocs, ZooModelsAllocateNothingAcrossBatchShapes)
{
    // FedGPO re-picks each device's batch every round, a shard's last
    // batch is partial, and the server evaluates at its own batch on the
    // same scratch models. After one training step and one evaluation at
    // the largest batch, none of that may allocate.
    namespace models = fedgpo::models;
    struct Batch
    {
        Tensor x;
        std::vector<int> labels;
    };
    for (const models::Workload workload : models::kAllWorkloads) {
        SCOPED_TRACE(models::workloadName(workload));
        const std::size_t classes = models::numClasses(workload);
        auto batchOf = [&](std::size_t n) {
            fedgpo::tensor::Shape shape = models::sampleShape(workload);
            shape.insert(shape.begin(), n);
            Batch b{Tensor(shape, 0.5f), std::vector<int>(n)};
            for (std::size_t i = 0; i < n; ++i)
                b.labels[i] = static_cast<int>(i % classes);
            return b;
        };
        // The thread's GEMM pack panel shrinks after a long streak of
        // GEMMs that need less than half of it (gemm.h), which the previous
        // workload's larger panel would start here; a worker trains one
        // workload, so let this one's warm-up size the panel.
        fedgpo::tensor::detail::packPanelReset();
        auto model = models::buildModel(workload, 3);
        nn::Sgd sgd(0.1, /*momentum=*/0.0, /*clip_norm=*/2.0);
        auto train = [&](const Batch &b) {
            model->zeroGrad();
            model->trainStep(b.x, b.labels);
            sgd.step(*model);
        };
        const Batch b64 = batchOf(64), b40 = batchOf(40);
        const Batch steps[] = {batchOf(8), batchOf(6), batchOf(1)};
        train(b64);
        model->evaluate(b64.x, b64.labels);
        const std::uint64_t n = allocsDuring([&] {
            for (const Batch &b : steps)
                train(b);
            model->evaluate(b64.x, b64.labels);
            model->evaluate(b40.x, b40.labels);
        });
        EXPECT_EQ(n, 0u);
    }
}

} // namespace
