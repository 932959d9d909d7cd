/**
 * @file
 * Unit tests for the statistics helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.h"

namespace fedgpo {
namespace util {
namespace {

TEST(RunningStat, EmptyIsNeutral)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStat, SingleValue)
{
    RunningStat s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStat, MatchesClosedForm)
{
    RunningStat s;
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double x : xs)
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic dataset is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStatMerge, MatchesBatchAdd)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStat whole;
    for (double x : xs)
        whole.add(x);

    RunningStat a, b;
    for (std::size_t i = 0; i < xs.size(); ++i)
        (i < 3 ? a : b).add(xs[i]);
    a.merge(b);

    EXPECT_EQ(a.count(), whole.count());
    EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
    EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
}

TEST(RunningStatMerge, EmptyOperands)
{
    RunningStat a;
    a.add(3.0);
    a.add(5.0);
    const RunningStat empty;

    RunningStat left = a;
    left.merge(empty); // merging empty changes nothing
    EXPECT_EQ(left.count(), 2u);
    EXPECT_DOUBLE_EQ(left.mean(), 4.0);

    RunningStat right;
    right.merge(a); // merging into empty copies
    EXPECT_EQ(right.count(), 2u);
    EXPECT_DOUBLE_EQ(right.mean(), 4.0);
    EXPECT_EQ(right.min(), 3.0);
    EXPECT_EQ(right.max(), 5.0);

    RunningStat both;
    both.merge(empty); // empty + empty stays empty
    EXPECT_EQ(both.count(), 0u);
    EXPECT_EQ(both.mean(), 0.0);
}

TEST(RunningStatMerge, MinMaxPropagate)
{
    RunningStat a, b;
    a.add(10.0);
    a.add(20.0);
    b.add(-5.0);
    b.add(30.0);
    a.merge(b);
    EXPECT_EQ(a.min(), -5.0);
    EXPECT_EQ(a.max(), 30.0);
    EXPECT_EQ(a.count(), 4u);
}

TEST(RunningStatMerge, ManyShardsMatchSingleStream)
{
    RunningStat whole, merged;
    std::vector<RunningStat> shards(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = std::sin(i * 0.37) * 50.0 + i * 0.01;
        whole.add(x);
        shards[static_cast<std::size_t>(i) % shards.size()].add(x);
    }
    for (const RunningStat &s : shards)
        merged.merge(s);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
}

TEST(Quantile, MedianOfOddSample)
{
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenOrderStats)
{
    EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Quantile, Extremes)
{
    std::vector<double> v = {5.0, 1.0, 9.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, SingleElement)
{
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(Mean, Basic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Geomean, Basic)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

} // namespace
} // namespace util
} // namespace fedgpo
