/**
 * @file
 * The one FedAvg fold: kept participant updates summed left to right
 * into a double-precision accumulator.
 */

#ifndef FEDGPO_FLEET_FOLD_H_
#define FEDGPO_FLEET_FOLD_H_

#include <span>
#include <vector>

namespace fedgpo {
namespace fleet {

/**
 * One kept participant update as the fold consumes it.
 */
struct Contribution
{
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
 * in arrival order.
 *
 * @param contribs Contributions, in fold order.
 * @param global   Previous global weights g (for partial blending).
 * @param acc      Output accumulator (double).
 */
void foldContributions(std::span<const Contribution> contribs,
                       const std::vector<float> &global,
                       std::vector<double> &acc);

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_FOLD_H_
