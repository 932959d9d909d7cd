/**
 * @file
 * Small statistics helpers shared by the simulator and the benches.
 */

#ifndef FEDGPO_UTIL_STATS_H_
#define FEDGPO_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace fedgpo {
namespace util {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    RunningStat();

    /** Fold one observation into the accumulator. */
    void add(double x);

    /** Number of observations folded in so far. */
    std::size_t count() const { return n_; }

    /** Mean of the observations (0 when empty). */
    double mean() const;

    /** Unbiased sample variance (0 when fewer than two observations). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation (-inf when empty). */
    double max() const { return max_; }

    /** Sum of all observations. */
    double sum() const { return sum_; }

    /**
     * Fold another accumulator into this one, as if every observation
     * added to `other` had been added here too (Chan et al.'s parallel
     * variance combination). Used to aggregate per-thread histogram
     * stripes without shared mutation.
     */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t n_;
    double mean_;
    double m2_;
    double min_;
    double max_;
    double sum_;
};

/**
 * Quantile of a sample via linear interpolation between order statistics.
 *
 * @param values Sample (copied and sorted internally).
 * @param q      Quantile in [0, 1].
 */
double quantile(std::vector<double> values, double q);

/** Arithmetic mean of a sample (0 when empty). */
double mean(const std::vector<double> &values);

/** Geometric mean of a positive sample (0 when empty). */
double geomean(const std::vector<double> &values);

} // namespace util
} // namespace fedgpo

#endif // FEDGPO_UTIL_STATS_H_
