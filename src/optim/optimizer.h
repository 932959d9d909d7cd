/**
 * @file
 * Interface every global-parameter optimization policy implements:
 * FedGPO, the Fixed/BO/GA baselines, and the FedEx/ABS prior-work
 * comparators.
 *
 * Round protocol (mirrors the paper's Fig. 8 loop):
 *   1. chooseClients(max_k)      -> K for this round
 *   2. assign(observations, census) -> per-device (B, E) for the K
 *      selected devices, given their observed runtime/data states
 *   3. (FlSimulator::runRound runs the round: the staged pipeline, or
 *      one event-pump epoch)
 *   4. feedback(result)          -> learning signal for the policy, fed
 *      the round's RoundResult (straggler/divergence drops already
 *      split out per cause)
 */

#ifndef FEDGPO_OPTIM_OPTIMIZER_H_
#define FEDGPO_OPTIM_OPTIMIZER_H_

#include <string>
#include <vector>

#include "comm/codec.h"
#include "fl/types.h"
#include "nn/model.h"
#include "obs/decision.h"

namespace fedgpo {
namespace optim {

/**
 * A round-by-round global-parameter policy.
 */
class ParamOptimizer
{
  public:
    virtual ~ParamOptimizer() = default;

    /** Policy name as printed in result tables. */
    virtual std::string name() const = 0;

    /**
     * Number of participant devices K for the upcoming round.
     * @param max_k Fleet-size cap (K cannot exceed the fleet).
     */
    virtual int chooseClients(int max_k) = 0;

    /**
     * Per-device (B, E) for the selected devices.
     *
     * @param devices One observation per selected device.
     * @param census  Layer census of the global model (the NN
     *                characteristics component of the optimization state).
     */
    virtual std::vector<fl::PerDeviceParams>
    assign(const std::vector<fl::DeviceObservation> &devices,
           const nn::LayerCensus &census) = 0;

    /**
     * Update-codec level for the upcoming round, asked after assign().
     * Every policy here keeps this pass-through of the scenario's codec;
     * the hook stays only because the e2e bench's timing wrapper
     * (bench/e2e/campaign.cc) overrides it.
     *
     * @param configured The codec from FlConfig::comm.
     */
    virtual comm::Codec
    chooseCodec(comm::Codec configured)
    {
        return configured;
    }

    /** Learning signal after the round completes. */
    virtual void feedback(const fl::RoundResult &result) = 0;

    /**
     * The decision record for the most recent completed round (after
     * feedback), or null when the policy keeps none. Policies that
     * return a record enable the `decision` section in the round trace;
     * the default — no record — costs nothing.
     */
    virtual const obs::DecisionRecord *
    lastDecision() const
    {
        return nullptr;
    }
};

} // namespace optim
} // namespace fedgpo

#endif // FEDGPO_OPTIM_OPTIMIZER_H_
