/**
 * @file
 * Pluggable server-side aggregation strategies for the round pipeline.
 *
 * An Aggregator combines the kept participant updates of one round into
 * new global weights. The default FedAvgAggregator reproduces Algorithm
 * 1's sample-weighted average bit-for-bit; TrimmedMeanAggregator is a
 * robust variant that survives poisoned or outlier updates by trimming
 * coordinate-wise extremes before averaging.
 */

#ifndef FEDGPO_FL_ROUND_AGGREGATOR_H_
#define FEDGPO_FL_ROUND_AGGREGATOR_H_

#include <cstddef>
#include <string>

#include "fl/round/round_context.h"

namespace fedgpo {
namespace fl {
namespace round {

/**
 * Strategy that folds the round's kept updates into the global weights.
 *
 * Contract: reads ctx.updates and ctx.result.participants (drop flags and
 * update_scale already final), writes *ctx.global_weights, and loads the
 * new weights into *ctx.global_model when it is non-null. When no update
 * is kept the global weights must be left untouched. A participant with
 * update_scale s < 1 contributes g + s * (w - g) (its update blended
 * toward the previous global weights g) instead of its raw weights w.
 */
class Aggregator
{
  public:
    virtual ~Aggregator() = default;

    /** Display name ("fedavg", "trimmed_mean"). */
    virtual std::string name() const = 0;

    /** Combine kept updates into new global weights. */
    virtual AggregationStats aggregate(RoundContext &ctx) = 0;
};

/**
 * FedAvg (Algorithm 1): sample-weighted average over kept updates,
 * accumulated in double. With all update_scale == 1 this is bit-identical
 * to the pre-engine monolithic round loop.
 */
class FedAvgAggregator : public Aggregator
{
  public:
    std::string name() const override { return "fedavg"; }
    AggregationStats aggregate(RoundContext &ctx) override;
};

/**
 * Hierarchical FedAvg: edge aggregators fold the kept contributions —
 * sorted ascending by client id — into fixed-size partial sums
 * (fleet::hierarchicalFold) that the server reduces in chunk order.
 * The fold tree is a pure function of the contribution order and the
 * chunk size, so the edge-group count (and thread count) only sets
 * parallelism: any value produces bit-identical global weights, and a
 * chunk spanning all contributors is bit-identical to a flat
 * ascending-id FedAvg fold. Per-term math matches FedAvgAggregator
 * exactly (sample weights, partial-acceptance blending).
 */
class HierarchicalFedAvgAggregator : public Aggregator
{
  public:
    /**
     * @param edge_groups Edge aggregators sharing the chunk fan-out;
     *                    clamped per round to the chunk count.
     * @param fold_chunk  Contributions per partial sum (>= 1).
     */
    explicit HierarchicalFedAvgAggregator(std::size_t edge_groups,
                                          std::size_t fold_chunk = 16);

    std::string name() const override { return "hier_fedavg"; }
    AggregationStats aggregate(RoundContext &ctx) override;

    std::size_t edgeGroups() const { return edge_groups_; }
    std::size_t foldChunk() const { return fold_chunk_; }

  private:
    std::size_t edge_groups_;
    std::size_t fold_chunk_;
};

/**
 * Coordinate-wise trimmed mean: for every weight coordinate, the highest
 * and lowest trim_fraction of contributor values are discarded and the
 * rest averaged (unweighted — sample weighting would let a poisoned
 * client regain influence through claimed sample counts).
 */
class TrimmedMeanAggregator : public Aggregator
{
  public:
    /**
     * @param trim_fraction Fraction of contributors trimmed from EACH
     *                      end, clamped so at least one value survives.
     */
    explicit TrimmedMeanAggregator(double trim_fraction = 0.2);

    std::string name() const override { return "trimmed_mean"; }
    AggregationStats aggregate(RoundContext &ctx) override;

    double trimFraction() const { return trim_fraction_; }

  private:
    double trim_fraction_;
};

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_AGGREGATOR_H_
