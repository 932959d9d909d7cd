/**
 * @file
 * Structured record of one FedGPO control decision: the observed state,
 * the chosen action (B, E, K), the Q-row backing the K choice, the
 * exploration outcome, and — once the round's feedback has been applied —
 * the decomposed Eq. 1 reward terms. This is the "why did the controller
 * pick that" record the round trace carries as its `decision` section.
 *
 * The record is plain data filled by core::FedGpo across its
 * chooseClients / assign / feedback calls; it never feeds back into the
 * learner or the simulator, so logging it is provably inert.
 */

#ifndef FEDGPO_OBS_DECISION_H_
#define FEDGPO_OBS_DECISION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fedgpo {
namespace obs {

/** One selected device's (B, E) pick. */
struct DeviceDecision
{
    std::size_t client_id = 0;
    std::size_t state = 0;    //!< discretized Table 1 state index
    std::size_t action = 0;   //!< (B, E) action index
    int batch = 0;            //!< decoded B
    int epochs = 0;           //!< decoded E
    bool explored = false;    //!< epsilon branch taken for this device
    double q = 0.0;           //!< Q(state, action) at decision time
    std::uint32_t visits = 0; //!< prior visits of the chosen cell
};

/** Decomposed Eq. 1 reward, plus the fault-injection penalties. */
struct RewardTerms
{
    double total = 0.0;
    double energy_global_term = 0.0; //!< -w * R_energy_global (PPW term)
    double energy_local_term = 0.0;  //!< -w * R_energy_local
    double accuracy_term = 0.0;      //!< alpha * R_accuracy
    double improvement_term = 0.0;   //!< beta * capped accuracy delta
    double stall_penalty = 0.0;      //!< R_accuracy - 100 (stall branch)
    double abort_penalty = 0.0;      //!< extra below-stall quorum penalty
    double staleness_term = 0.0;     //!< -w * staleness_norm (async modes)
    bool stall_branch = false;       //!< Eq. 1 took the no-improvement arm
    bool aborted = false;            //!< round missed quorum
};

/**
 * One round's complete FedGPO decision.
 */
struct DecisionRecord
{
    int round = 0;          //!< 1-based round (the policy's own count)
    double epsilon = 0.0;   //!< exploration probability in force

    // Global K choice.
    std::size_t k_state = 0;
    std::size_t k_action = 0;
    int k_value = 0;            //!< decoded (fleet-clamped) K
    bool k_explored = false;    //!< epsilon branch taken for K
    bool k_swept = false;       //!< every K action tried at this state
    std::vector<double> k_qrow; //!< Q-row of k_state at decision time

    // Per-device (B, E) choices.
    std::vector<DeviceDecision> devices;

    // Filled by feedback(): the global K reward decomposition plus the
    // mean per-device reward actually applied.
    RewardTerms reward;
    double device_reward_mean = 0.0;
    std::size_t devices_rewarded = 0;

    /** True once feedback() has filled the reward terms. */
    bool complete = false;
};

/** Serialize a record as one compact JSON object (%.17g numbers). */
std::string decisionJson(const DecisionRecord &record);

} // namespace obs
} // namespace fedgpo

#endif // FEDGPO_OBS_DECISION_H_
