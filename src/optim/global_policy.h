/**
 * @file
 * Base class for policies that pick one global (B, E, K) per round and
 * apply it uniformly to every selected device — the shape of the
 * paper's search baselines (Adaptive BO, Adaptive GA, FedEx; Fixed
 * needs no reward and is a plain ParamOptimizer, optim/fixed.h). The
 * round-level reward handed to subclasses is the same Eq. 1 signal
 * FedGPO maximizes (with the per-device local term zeroed, since these
 * policies have no per-device decisions), so comparisons isolate the
 * search mechanism.
 */

#ifndef FEDGPO_OPTIM_GLOBAL_POLICY_H_
#define FEDGPO_OPTIM_GLOBAL_POLICY_H_

#include "core/reward.h"
#include "optim/optimizer.h"

namespace fedgpo {
namespace optim {

/**
 * One-global-config-per-round policy skeleton.
 */
class GlobalConfigPolicy : public ParamOptimizer
{
  public:
    GlobalConfigPolicy() = default;

    int chooseClients(int max_k) final;
    std::vector<fl::PerDeviceParams>
    assign(const std::vector<fl::DeviceObservation> &devices,
           const nn::LayerCensus &census) final;
    void feedback(const fl::RoundResult &result) final;

  protected:
    /** Pick the config for the upcoming round. */
    virtual fl::GlobalParams nextConfig() = 0;

    /**
     * Learn from the finished round.
     *
     * @param config Config that was applied.
     * @param reward Eq. 1 round reward (higher is better).
     * @param result Full round outcome for policies that need more.
     */
    virtual void observeReward(const fl::GlobalParams &config,
                               double reward,
                               const fl::RoundResult &result) = 0;

  private:
    fl::GlobalParams current_;
    double accuracy_prev_ = 0.0;
    core::EnergyNormalizer energy_norm_;
    bool config_pending_ = false;
};

} // namespace optim
} // namespace fedgpo

#endif // FEDGPO_OPTIM_GLOBAL_POLICY_H_
