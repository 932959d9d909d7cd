/**
 * @file
 * FL data partitioners: IID and Dirichlet non-IID shard assignment
 * (paper Section 4.2, "Data distribution").
 */

#ifndef FEDGPO_DATA_PARTITION_H_
#define FEDGPO_DATA_PARTITION_H_

#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace fedgpo {
namespace data {

/** How training data is spread over client devices. */
enum class Distribution {
    IidIdeal,   //!< all classes evenly distributed to every device
    NonIid,     //!< Dirichlet(alpha) label skew per device
};

/** Per-device shard: indices into the shared training Dataset. */
using Partition = std::vector<std::vector<std::size_t>>;

/**
 * Even IID split: samples are shuffled and dealt round-robin, so every
 * device sees (approximately) the global class mixture.
 *
 * @param dataset   Source data.
 * @param n_devices Number of shards.
 * @param rng       Shuffle stream.
 */
Partition iidPartition(const Dataset &dataset, std::size_t n_devices,
                       util::Rng &rng);

/**
 * The shuffled sample order iidPartition deals round-robin: shard d of a
 * fleet of n is order[d], order[d + n], order[d + 2n], ... — in exactly
 * that element order. Exposed so a lazy fleet can materialize any single
 * shard in O(shard) from one O(samples) vector instead of holding the
 * O(fleet) vector-of-vectors resident; consumes the same draws from
 * `rng` as iidPartition.
 */
std::vector<std::size_t> iidAssignmentOrder(std::size_t samples,
                                            util::Rng &rng);

/**
 * Dirichlet non-IID split: for each class, the per-device share of that
 * class's samples is drawn from Dirichlet(alpha); alpha = 0.1 (the paper's
 * concentration) yields strongly skewed shards where most devices hold
 * only a few classes.
 *
 * Every device is guaranteed at least `min_per_device` samples (topped up
 * from the largest shards) so no client is left unable to form a batch.
 * An alpha that is not finite and > 0 is fatal.
 */
Partition dirichletPartition(const Dataset &dataset, std::size_t n_devices,
                             double alpha, util::Rng &rng,
                             std::size_t min_per_device = 8);

/**
 * Convenience dispatcher over Distribution.
 */
Partition makePartition(const Dataset &dataset, std::size_t n_devices,
                        Distribution dist, util::Rng &rng,
                        double alpha = 0.1);

} // namespace data
} // namespace fedgpo

#endif // FEDGPO_DATA_PARTITION_H_
