/**
 * @file
 * Fleet-scale knobs: how much per-client state stays resident between
 * rounds, and how participant updates are folded into the global model.
 *
 * All defaults preserve the pre-fleet-layer behavior bit-for-bit: no LRU
 * cap means residency is unbounded, one edge group keeps flat FedAvg
 * aggregation, and lazy materialization itself is exact (a materialized
 * client replays the identical RNG fold an always-resident one would
 * have stepped through).
 */

#ifndef FEDGPO_FLEET_FLEET_CONFIG_H_
#define FEDGPO_FLEET_FLEET_CONFIG_H_

#include <cstddef>

namespace fedgpo {
namespace fleet {

/**
 * Fleet-layer configuration, embedded in FlConfig.
 */
struct FleetConfig
{
    /**
     * Maximum clients kept resident between rounds; 0 = unlimited.
     * Eviction happens after each round, so mid-round residency can
     * transiently exceed the cap by the participant count. Purely a
     * memory knob: results are bit-identical for any value.
     */
    std::size_t lru_cap = 0;

    /**
     * Edge aggregators folding participant updates into partial sums
     * before the global reduce. 1 (the default) keeps round::fedAvg's
     * flat fold; > 1 selects hierarchical aggregation. The fold tree is
     * fixed by fold_chunk alone, so the group count only sets
     * parallelism — results are bit-identical for any value.
     */
    std::size_t edge_groups = 1;

    /**
     * Contributions per partial sum in the hierarchical fold tree (the
     * fold-order invariant: the tree depends on this chunk size and the
     * ascending-client-id contribution order, never on edge_groups or
     * thread count).
     */
    std::size_t fold_chunk = 16;

    /**
     * Resident-fleet baseline mode: materialize every client up front
     * and advance all of them each round, exactly like the
     * pre-fleet-layer simulator. Bit-identical to lazy mode; used by
     * fleet_bench as the comparison baseline.
     */
    bool eager = false;
};

/**
 * Validate and repair a FleetConfig at the simulator boundary: fatal on
 * a zero fleet, warn + clamp when edge_groups exceeds the fleet or is
 * zero, and restore the default fold_chunk when it is zero. (K > fleet
 * is clamped at selection time, where K is known.)
 */
void validateFleetConfig(FleetConfig &config, std::size_t fleet_size);

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_FLEET_CONFIG_H_
