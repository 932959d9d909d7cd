/**
 * @file
 * An FL client device: its tier, local data shard, and stochastic runtime
 * state (interference and network), plus the real local-training step of
 * FedAvg's ClientUpdate (Algorithm 1).
 *
 * Lives in the fleet layer so the ClientStore can materialize, advance,
 * and evict client instances without going through the fl round pipeline.
 */

#ifndef FEDGPO_FLEET_CLIENT_H_
#define FEDGPO_FLEET_CLIENT_H_

#include <vector>

#include "data/dataset.h"
#include "device/device_profile.h"
#include "device/interference.h"
#include "device/network_model.h"
#include "fl/types.h"
#include "nn/model.h"
#include "nn/sgd.h"
#include "util/rng.h"

namespace fedgpo {
namespace fleet {

/**
 * One participating device.
 */
class Client
{
  public:
    /**
     * @param id           Fleet index.
     * @param category     Performance tier.
     * @param shard        Indices into the shared training Dataset.
     * @param interference Per-device interference process (moved in).
     * @param rng          Per-client stream for shuffling and variance.
     */
    Client(std::size_t id, device::Category category,
           std::vector<std::size_t> shard,
           device::InterferenceProcess interference, util::Rng rng);

    std::size_t id() const { return id_; }
    device::Category category() const { return category_; }
    const std::vector<std::size_t> &shard() const { return shard_; }
    std::size_t shardSize() const { return shard_.size(); }

    /**
     * Advance the stochastic runtime state by one round (interference and
     * network draw) and return it. The state is a pure fold over the
     * client's private stream, so a lazily materialized client replays
     * exactly the rounds an always-resident one would have stepped
     * through.
     */
    void stepRuntime(const device::NetworkModel &network);

    /** Latest interference state. */
    const device::InterferenceState &interference() const
    {
        return interference_state_;
    }

    /** Latest network state. */
    const device::NetworkState &network() const { return network_state_; }

    /**
     * Result of one ClientUpdate: the locally trained weights plus the
     * mean training loss observed.
     */
    struct UpdateResult
    {
        std::vector<float> weights;
        double train_loss = 0.0;
        std::size_t samples = 0;
    };

    /**
     * FedAvg ClientUpdate (Algorithm 1): split the shard into batches of
     * size B, run E local epochs of SGD, return the trained weights.
     *
     * Both the scratch model and the training RNG are injected so the
     * runtime can execute ClientUpdates concurrently: each worker brings
     * its own scratch model, and the simulator pre-splits one RNG per
     * (round, client) on the caller thread before dispatch, making the
     * result independent of scheduling. Const: training touches no client
     * state beyond reading the shard.
     *
     * A client with an empty shard (possible in million-device fleets
     * where the sample pool is smaller than the fleet) returns the
     * scratch weights untouched with samples = 0, which carries zero
     * weight in aggregation.
     *
     * @param scratch  Model pre-loaded with the current global weights;
     *                 its parameters are mutated in place.
     * @param rng      Training stream (epoch shuffle order).
     * @param dataset  Shared training data store.
     * @param params   Per-device (B, E).
     * @param lr       SGD learning rate eta.
     * @param work_fraction Fraction of the E-epoch step budget actually
     *                 executed — a crashing device (fault injection)
     *                 really trains up to its crash point, so its
     *                 partial report carries a real loss. 1 (the
     *                 default) runs the full budget and is bit-identical
     *                 to the pre-fault code path.
     */
    UpdateResult localTrain(nn::Model &scratch, util::Rng &rng,
                            const data::Dataset &dataset,
                            const fl::PerDeviceParams &params, double lr,
                            double work_fraction = 1.0) const;

    /**
     * Client-resident error-feedback residual for sparsifying update
     * codecs (comm::TopKCodec): the untransmitted remainder of past
     * updates, re-offered on the next participation. Empty until the
     * client first encodes under such a codec. Mutable access is safe
     * under the round pipeline's parallel Encode fan-out because a
     * client participates at most once per round. Sticky state: the
     * ClientStore banks it across eviction and restores it on
     * re-materialization, so an LRU cap never loses a residual.
     */
    std::vector<float> &commResidual() { return comm_residual_; }
    const std::vector<float> &commResidual() const { return comm_residual_; }

  private:
    std::size_t id_;
    device::Category category_;
    std::vector<std::size_t> shard_;
    device::InterferenceProcess interference_;
    util::Rng rng_;
    device::InterferenceState interference_state_;
    device::NetworkState network_state_;
    std::vector<float> comm_residual_;
};

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_CLIENT_H_
