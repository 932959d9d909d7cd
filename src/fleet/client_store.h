/**
 * @file
 * Lazy client materialization: the ClientStore rebuilds any client of an
 * arbitrarily large fleet on demand from the seeded split-RNG scheme,
 * keeps at most an LRU cap of them resident between rounds, and banks
 * sticky state (the TopK error-feedback residual) across eviction.
 *
 * Exactness contract: a client's full state at round r is a pure fold
 * over (seed, id, r) — its private RNG stream is recovered from a
 * snapshot skip-list of the construction-time parent generator, its
 * shard from the shard plan, and its runtime state by replaying r
 * stepRuntime() folds — so lazy materialization, any LRU cap, and the
 * eager resident-fleet baseline all produce bit-identical results.
 */

#ifndef FEDGPO_FLEET_CLIENT_STORE_H_
#define FEDGPO_FLEET_CLIENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "device/network_model.h"
#include "fleet/client.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace fedgpo {
namespace fleet {

/**
 * How a client's data shard is recovered without the O(fleet)
 * vector-of-vectors partition resident.
 */
struct ShardPlan
{
    enum class Kind
    {
        Strided, //!< IID round-robin deal: shard d = order[d], order[d+n], ...
        Csr,     //!< explicit shards, flattened (non-IID Dirichlet)
    };

    Kind kind = Kind::Strided;
    std::size_t fleet = 0;

    /** Strided: the shuffled sample order the round-robin deal consumed. */
    std::vector<std::size_t> order;

    /** Csr: concatenated shards + per-client offsets (size fleet + 1). */
    std::vector<std::size_t> flat;
    std::vector<std::size_t> offsets;

    /** Materialize client `id`'s shard, element order preserved. */
    std::vector<std::size_t> shardOf(std::size_t id) const;

    /** Shard size of client `id` without materializing it. */
    std::size_t shardSize(std::size_t id) const;

    /** Build a Strided plan over a shuffled order. */
    static ShardPlan strided(std::size_t fleet,
                             std::vector<std::size_t> order);

    /** Build a Csr plan from an explicit partition. */
    static ShardPlan
    csr(const std::vector<std::vector<std::size_t>> &partition);
};

/**
 * Everything needed to materialize any client of the fleet on demand.
 */
struct ClientRecipe
{
    std::size_t fleet = 0;
    bool interference = false;
    /** Network regime for runtime stepping (non-owning, must outlive). */
    const device::NetworkModel *network = nullptr;
    ShardPlan shards;

    /**
     * Snapshot skip-list of the parent generator: snapshots[k] is the
     * parent's state just before deriving client k * stride. Client i's
     * private stream is recovered by copying snapshots[i / stride],
     * discarding (i mod stride) draws, and splitting with the same tag
     * the eager constructor used — bit-identical to the resident fleet.
     */
    std::vector<util::Rng> snapshots;
    std::size_t stride = 512;

    /** Tag the parent was split with for client i (simulator: 100 + i). */
    std::uint64_t split_tag_base = 100;

    /** Recover client i's private stream. */
    util::Rng clientRng(std::size_t id) const;
};

/**
 * The fleet's client state, materialized on demand.
 *
 * Modes:
 *  - lazy (the default): clients are built from the recipe at first
 *    acquire, advanced by replaying rounds, and evicted beyond the LRU
 *    cap at endRound(); sticky comm residuals are banked across
 *    eviction.
 *  - eager: every client is materialized at construction and advanced
 *    each round via advanceAll() — the resident-fleet baseline, kept
 *    for fleet_bench comparison. Bit-identical to lazy.
 *  - adopted: wraps an externally built std::vector<Client> (unit
 *    tests); no recipe, no eviction.
 *
 * Thread safety: acquire()/endRound()/advanceAll() mutate and must run
 * on the owning thread between parallel stages; resident() is a
 * read-only lookup safe to call concurrently once the round's
 * participants are pinned (the Select stage ensures residency right
 * after selection). References stay valid until the next endRound().
 */
class ClientStore
{
  public:
    /** Lazy store over a recipe. @p lru_cap 0 = unlimited. */
    ClientStore(ClientRecipe recipe, std::size_t lru_cap,
                bool eager = false);

    /** Adopted store over an externally built fleet (tests). */
    explicit ClientStore(std::vector<Client> clients);

    /** Fleet size N (not the resident count). */
    std::size_t size() const { return fleet_; }

    /**
     * Materialize (or advance) client `id` to `round` and return it.
     * Idempotent within a round; never evicts (eviction is endRound()'s
     * job, so references handed out during a round stay valid).
     */
    Client &acquire(std::size_t id, int round);

    /**
     * The already-resident client `id` (read-only lookup, no LRU
     * bookkeeping, safe under the parallel Train/Encode fan-outs).
     * Requires a prior acquire this round.
     */
    Client &resident(std::size_t id) const;

    /** True when client `id` is currently materialized. */
    bool isResident(std::size_t id) const;

    /**
     * End-of-round housekeeping: evict least-recently-used clients
     * beyond the LRU cap, banking non-empty comm residuals so sticky
     * state survives. No-op in eager/adopted mode or under cap 0.
     */
    void endRound();

    /**
     * Advance every resident client to `round` (eager/adopted modes: the
     * whole fleet, replicating the pre-fleet-layer per-round sweep).
     */
    void advanceAll(int round);

    /** Currently materialized clients. */
    std::size_t residentCount() const { return entries_.size(); }

    /** High-water mark of residentCount() over the store's lifetime. */
    std::size_t peakResident() const { return peak_resident_; }

    /** Banked (evicted) comm residuals. */
    std::size_t bankedResiduals() const { return residual_bank_.size(); }

    /**
     * Approximate resident heap footprint: per-client shard indices,
     * comm residuals (resident and banked), and Client bodies. Excludes
     * the shared recipe (shard plan + snapshots), which is O(samples +
     * fleet / stride), not O(fleet * clients).
     */
    std::size_t residentBytes() const;

  private:
    struct Entry
    {
        Client client;
        int synced_round = 0;
        std::uint64_t last_used = 0;
    };

    /** Build client `id` fresh from the recipe (round 0 state). */
    Client materialize(std::size_t id);

    /** Step a client from its synced round up to `round`. */
    void advanceEntry(Entry &entry, int round);

    /** Resolve the fleet.* metric probes (all null when metrics off). */
    void resolveProbes();

    ClientRecipe recipe_;
    std::size_t fleet_ = 0;
    std::size_t lru_cap_ = 0;
    bool lazy_ = false; //!< false: eager/adopted (no eviction)
    std::uint64_t use_clock_ = 0;
    // fleet.* residency probes for the Prometheus exposition; null when
    // metrics are off.
    obs::Gauge *resident_gauge_ = nullptr;
    obs::Gauge *banked_gauge_ = nullptr;
    obs::Counter *evictions_counter_ = nullptr;
    std::size_t peak_resident_ = 0;
    std::unordered_map<std::size_t, Entry> entries_;
    /** Sticky TopK error-feedback residuals of evicted clients. */
    std::unordered_map<std::size_t, std::vector<float>> residual_bank_;
};

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_CLIENT_STORE_H_
