/**
 * @file
 * Unit tests for the Dataset container and the synthetic data
 * generators.
 */

#include <limits>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fedgpo {
namespace data {
namespace {

using tensor::Shape;
using tensor::Tensor;

Dataset
tinyDataset()
{
    Tensor feat({4, 2}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7});
    return Dataset(std::move(feat), {0, 1, 0, 2}, 3);
}

TEST(Dataset, BasicAccessors)
{
    Dataset ds = tinyDataset();
    EXPECT_EQ(ds.size(), 4u);
    EXPECT_EQ(ds.numClasses(), 3u);
    EXPECT_EQ(ds.sampleShape(), (Shape{2}));
    EXPECT_EQ(ds.label(3), 2);
}

TEST(Dataset, GatherCopiesRows)
{
    Dataset ds = tinyDataset();
    Tensor batch;
    std::vector<int> labels;
    ds.gather({2, 0}, batch, labels);
    ASSERT_EQ(batch.shape(), (Shape{2, 2}));
    EXPECT_EQ(batch[0], 4.0f);
    EXPECT_EQ(batch[1], 5.0f);
    EXPECT_EQ(batch[2], 0.0f);
    EXPECT_EQ(labels, (std::vector<int>{0, 0}));
}

TEST(Dataset, GatherReusesBuffer)
{
    Dataset ds = tinyDataset();
    Tensor batch;
    std::vector<int> labels;
    ds.gather({0, 1}, batch, labels);
    const float *ptr = batch.data();
    ds.gather({2, 3}, batch, labels);
    EXPECT_EQ(batch.data(), ptr) << "same-shape gather must not realloc";
}

TEST(Dataset, GatherReusesBufferForASmallerBatch)
{
    Dataset ds = tinyDataset();
    Tensor batch;
    std::vector<int> labels;
    ds.gather({0, 1, 2, 3}, batch, labels);
    const float *ptr = batch.data();
    ds.gather({3, 1}, batch, labels);
    EXPECT_EQ(batch.data(), ptr) << "a smaller gather must keep the buffer";
    ASSERT_EQ(batch.shape(), (Shape{2, 2}));
    EXPECT_EQ(batch[0], 6.0f);
    EXPECT_EQ(batch[3], 3.0f);
    EXPECT_EQ(labels, (std::vector<int>{2, 1}));
}

TEST(Dataset, ClassHistogramAndPresence)
{
    Dataset ds = tinyDataset();
    auto hist = ds.classHistogram({0, 1, 2, 3});
    EXPECT_EQ(hist, (std::vector<std::size_t>{2, 1, 1}));
    EXPECT_EQ(ds.classesPresent({0, 2}), 1u);
    EXPECT_EQ(ds.classesPresent({0, 1, 3}), 3u);
    EXPECT_EQ(ds.classesPresent({}), 0u);
}

TEST(Dataset, RejectsMismatchedLabels)
{
    Tensor feat({2, 2});
    EXPECT_THROW(Dataset(std::move(feat), {0}, 2), util::FatalError);
}

TEST(DatasetContract, GatherRejectsIndicesOutsideTheDataset)
{
    Dataset ds = tinyDataset();
    Tensor batch;
    std::vector<int> labels;
    EXPECT_THROW(ds.gather({0, 4}, batch, labels), util::FatalError);
    EXPECT_THROW(ds.gather({std::numeric_limits<std::size_t>::max()}, batch,
                           labels),
                 util::FatalError);
    ds.gather({3}, batch, labels);
    EXPECT_EQ(labels, (std::vector<int>{2}));
}

TEST(DatasetContract, RejectsLabelsOutsideTheClassRange)
{
    // classHistogram indexes its per-class counts by label.
    EXPECT_THROW(Dataset(Tensor({2, 2}), {0, 7}, 2), util::FatalError);
    EXPECT_THROW(Dataset(Tensor({2, 2}), {0, 2}, 2), util::FatalError);
    EXPECT_THROW(Dataset(Tensor({2, 2}), {-1, 0}, 2), util::FatalError);
    EXPECT_NO_THROW(Dataset(Tensor({2, 2}), {0, 1}, 2));
}

TEST(SyntheticMnist, ShapeAndLabels)
{
    util::Rng rng(1);
    Dataset ds = makeSyntheticMnist(100, rng);
    EXPECT_EQ(ds.size(), 100u);
    EXPECT_EQ(ds.numClasses(), 10u);
    EXPECT_EQ(ds.sampleShape(), (Shape{1, 16, 16}));
    for (std::size_t i = 0; i < ds.size(); ++i) {
        EXPECT_GE(ds.label(i), 0);
        EXPECT_LT(ds.label(i), 10);
    }
}

TEST(SyntheticMnist, AllClassesRepresented)
{
    util::Rng rng(2);
    Dataset ds = makeSyntheticMnist(500, rng);
    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    EXPECT_EQ(ds.classesPresent(all), 10u);
}

TEST(SyntheticMnist, DeterministicGivenSeed)
{
    util::Rng a(3), b(3);
    Dataset da = makeSyntheticMnist(20, a);
    Dataset db = makeSyntheticMnist(20, b);
    Tensor ba, bb;
    std::vector<int> la, lb;
    da.gather({0, 5, 19}, ba, la);
    db.gather({0, 5, 19}, bb, lb);
    EXPECT_EQ(la, lb);
    for (std::size_t i = 0; i < ba.numel(); ++i)
        EXPECT_EQ(ba[i], bb[i]);
}

TEST(SyntheticMnist, ClassesAreSeparable)
{
    // Same-class samples must be closer (on average) than cross-class
    // samples, otherwise nothing is learnable.
    util::Rng rng(4);
    Dataset ds = makeSyntheticMnist(300, rng);
    Tensor a, b;
    std::vector<int> la, lb;
    double same = 0.0, diff = 0.0;
    std::size_t n_same = 0, n_diff = 0;
    for (std::size_t i = 0; i + 1 < 200; i += 2) {
        ds.gather({i}, a, la);
        ds.gather({i + 1}, b, lb);
        double d2 = 0.0;
        for (std::size_t j = 0; j < a.numel(); ++j) {
            const double d = a[j] - b[j];
            d2 += d * d;
        }
        if (la[0] == lb[0]) {
            same += d2;
            ++n_same;
        } else {
            diff += d2;
            ++n_diff;
        }
    }
    ASSERT_GT(n_same, 0u);
    ASSERT_GT(n_diff, 0u);
    EXPECT_LT(same / n_same, diff / n_diff);
}

TEST(SyntheticImageNet, ShapeAndClasses)
{
    util::Rng rng(5);
    Dataset ds = makeSyntheticImageNet(60, rng);
    EXPECT_EQ(ds.numClasses(), 20u);
    EXPECT_EQ(ds.sampleShape(), (Shape{3, 16, 16}));
}

TEST(SyntheticShakespeare, OneHotWindows)
{
    util::Rng rng(6);
    Dataset ds = makeSyntheticShakespeare(50, rng);
    EXPECT_EQ(ds.numClasses(), models::lstmVocab());
    EXPECT_EQ(ds.sampleShape(),
              (Shape{models::lstmSeqLen(), models::lstmVocab()}));
    Tensor batch;
    std::vector<int> labels;
    ds.gather({0, 10}, batch, labels);
    // Every timestep row must be exactly one-hot.
    const std::size_t T = models::lstmSeqLen();
    const std::size_t V = models::lstmVocab();
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t t = 0; t < T; ++t) {
            double row_sum = 0.0;
            for (std::size_t v = 0; v < V; ++v) {
                const float val = batch[(s * T + t) * V + v];
                EXPECT_TRUE(val == 0.0f || val == 1.0f);
                row_sum += val;
            }
            EXPECT_DOUBLE_EQ(row_sum, 1.0);
        }
    }
}

TEST(SyntheticShakespeare, ConsecutiveWindowsOverlap)
{
    // Window i+1 is window i shifted by one character, so the stream is
    // genuinely sequential.
    util::Rng rng(7);
    Dataset ds = makeSyntheticShakespeare(10, rng);
    Tensor b0, b1;
    std::vector<int> l0, l1;
    ds.gather({0}, b0, l0);
    ds.gather({1}, b1, l1);
    const std::size_t T = models::lstmSeqLen();
    const std::size_t V = models::lstmVocab();
    // Timestep t of window 1 equals timestep t+1 of window 0.
    for (std::size_t t = 0; t + 1 < T; ++t)
        for (std::size_t v = 0; v < V; ++v)
            EXPECT_EQ(b1[t * V + v], b0[(t + 1) * V + v]);
}

} // namespace
} // namespace data
} // namespace fedgpo
