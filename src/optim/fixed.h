/**
 * @file
 * The Fixed baseline: one (B, E, K) for the whole run. With the config
 * found by grid search this is the paper's "Fixed (Best)". Header-only,
 * so FlSimulator::runRoundWithParams runs through it too.
 */

#ifndef FEDGPO_OPTIM_FIXED_H_
#define FEDGPO_OPTIM_FIXED_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "optim/optimizer.h"

namespace fedgpo {
namespace optim {

/**
 * Constant global-parameter policy: K capped at the fleet, the same
 * (B, E) for every selected device, and no learning from feedback.
 */
class FixedOptimizer : public ParamOptimizer
{
  public:
    /** @param params The fixed (B, E, K). */
    explicit FixedOptimizer(const fl::GlobalParams &params,
                            std::string label = "Fixed")
        : params_(params), label_(std::move(label))
    {
    }

    std::string name() const override { return label_; }

    int
    chooseClients(int max_k) override
    {
        return std::min(params_.clients, max_k);
    }

    std::vector<fl::PerDeviceParams>
    assign(const std::vector<fl::DeviceObservation> &devices,
           const nn::LayerCensus &) override
    {
        return std::vector<fl::PerDeviceParams>(
            devices.size(),
            fl::PerDeviceParams{params_.batch, params_.epochs});
    }

    void feedback(const fl::RoundResult &) override {}

  private:
    fl::GlobalParams params_;
    std::string label_;
};

} // namespace optim
} // namespace fedgpo

#endif // FEDGPO_OPTIM_FIXED_H_
