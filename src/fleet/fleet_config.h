/**
 * @file
 * Fleet-scale knobs: how much per-client state stays resident between
 * rounds, and whether clients materialize lazily at all.
 *
 * All defaults preserve the pre-fleet-layer behavior bit-for-bit: no LRU
 * cap means residency is unbounded, and lazy materialization itself is
 * exact (a materialized client replays the identical RNG fold an
 * always-resident one would have stepped through).
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
     * Resident-fleet baseline mode: materialize every client up front
     * and advance all of them each round, exactly like the
     * pre-fleet-layer simulator. Bit-identical to lazy mode; used by
     * fleet_bench as the comparison baseline.
     */
    bool eager = false;
};

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_FLEET_CONFIG_H_
