#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace fedgpo {
namespace util {

RunningStat::RunningStat()
{
    reset();
}

void
RunningStat::reset()
{
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n_total = na + nb;
    mean_ += delta * nb / n_total;
    m2_ += other.m2_ + delta * delta * na * nb / n_total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStat::mean() const
{
    return n_ == 0 ? 0.0 : mean_;
}

double
RunningStat::variance() const
{
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
quantile(std::vector<double> values, double q)
{
    assert(!values.empty());
    assert(q >= 0.0 && q <= 1.0);
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values[0];
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    auto hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double total = 0.0;
    for (double v : values)
        total += v;
    return total / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        assert(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace util
} // namespace fedgpo
