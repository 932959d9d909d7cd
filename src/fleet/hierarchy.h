/**
 * @file
 * Hierarchical aggregation substrate: edge aggregators fold participant
 * updates into fixed-size partial sums that the server reduces into the
 * final accumulator.
 *
 * The fold-order invariant: contributions are folded in ascending client
 * id, grouped into chunks of a fixed size, each chunk summed left to
 * right into its own double-precision partial, and the partials reduced
 * left to right in chunk order. That tree depends ONLY on the
 * contribution order and the chunk size — never on how many edge groups
 * (or threads) execute the chunks — so any edge count produces
 * bit-identical global weights, and a single chunk spanning all
 * contributors is bit-identical to the flat ascending-id FedAvg fold.
 */

#ifndef FEDGPO_FLEET_HIERARCHY_H_
#define FEDGPO_FLEET_HIERARCHY_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fedgpo {

namespace runtime {
class ThreadPool;
} // namespace runtime

namespace fleet {

/**
 * One kept participant update as the fold consumes it.
 */
struct Contribution
{
    std::size_t client_id = 0;
    const std::vector<float> *weights = nullptr; //!< trained weights w
    double weight = 0.0; //!< FedAvg sample weight (samples_i / total)
    /**
     * Blend scale s: a full contribution (s == 1) adds weight * w[j]; a
     * scaled one (a Buffered update's staleness scale) blends toward
     * the previous globals, adding weight * (g[j] + s * (w[j] - g[j])).
     */
    double scale = 1.0;
};

/**
 * Sum `contribs` left to right into `acc` (resized and zeroed to
 * global.size()): the flat FedAvg fold. round::fedAvg folds a round's
 * kept updates in participant order, the Buffered event pump its buffer
 * in arrival order, and hierarchicalFold each chunk.
 *
 * @param contribs Contributions, in fold order.
 * @param global   Previous global weights g (for partial blending).
 * @param acc      Output accumulator (double).
 */
void foldContributions(std::span<const Contribution> contribs,
                       const std::vector<float> &global,
                       std::vector<double> &acc);

/**
 * Fold `contribs` (already sorted ascending by client id) into `acc`
 * (resized and zeroed to global.size()).
 *
 * @param contribs    Kept contributions, ascending client id.
 * @param global      Previous global weights g (for partial blending).
 * @param chunk       Contributions per partial sum (>= 1). The fold
 *                    tree is a pure function of this and the order.
 * @param edge_groups Edge aggregators sharing the chunks (contiguous
 *                    chunk ranges); parallelism only, never numerics.
 * @param pool        Optional worker pool for the edge fan-out; null or
 *                    single-threaded runs inline. Bit-identical either
 *                    way: each chunk's partial is slot-private and the
 *                    final reduce runs in chunk order on the caller.
 * @param acc         Output accumulator (double).
 */
void hierarchicalFold(const std::vector<Contribution> &contribs,
                      const std::vector<float> &global, std::size_t chunk,
                      std::size_t edge_groups, runtime::ThreadPool *pool,
                      std::vector<double> &acc);

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_HIERARCHY_H_
