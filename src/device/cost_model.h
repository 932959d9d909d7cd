/**
 * @file
 * Per-client round cost model: wall-clock time and energy of one local
 * training pass plus the model exchange, combining the tier profile
 * (Tables 3-4), the power model (Eq. 2), the network model (Eq. 3), and
 * the interference state.
 *
 * Calibration. The NN library trains deliberately tiny models so that
 * real gradient descent over hundreds of FL rounds fits the host budget;
 * the *simulated* device cost must nevertheless correspond to the paper's
 * full-size workloads (28x28 MNIST CNN, full Shakespeare LSTM, real
 * MobileNet). Each workload therefore carries a flops/bytes scale factor
 * mapping the tiny proxy model onto its full-size counterpart's compute
 * and payload. The scale factors change absolute seconds/Joules only;
 * every comparison the benches report is a ratio, which the factors
 * cancel out of.
 */

#ifndef FEDGPO_DEVICE_COST_MODEL_H_
#define FEDGPO_DEVICE_COST_MODEL_H_

#include <cstdint>

#include "device/device_profile.h"
#include "device/interference.h"
#include "device/network_model.h"
#include "models/zoo.h"

namespace fedgpo {
namespace device {

/**
 * Workload-specific calibration constants.
 */
struct WorkloadCost
{
    double flops_scale;       //!< proxy-model FLOPs -> full-model FLOPs
    double bytes_scale;       //!< proxy payload -> full payload
    double act_mb_per_sample; //!< activation memory per in-flight sample
    double mem_intensity;     //!< 0..1, extra sensitivity to memory
                              //!< contention (RC layers are high)
};

/** Calibrated cost constants for a paper workload. */
const WorkloadCost &costFor(models::Workload w);

/**
 * Description of the local work one client performs in one round.
 */
struct LocalWorkSpec
{
    std::uint64_t train_flops_per_sample = 0; //!< proxy model, fwd+bwd
    std::size_t samples = 0;                  //!< local shard size
    int batch = 8;                            //!< B
    int epochs = 1;                           //!< E
    std::size_t param_bytes = 0;              //!< proxy payload (one way)
    /**
     * Uplink payload in proxy bytes after update encoding; 0 (the
     * default) means an uncompressed upload of param_bytes. The download
     * is always the full model (the server ships raw weights).
     */
    std::uint64_t upload_bytes = 0;
};

/**
 * Cost of a client's participation in one round.
 */
struct RoundCost
{
    double t_comp = 0.0;  //!< local training time (s)
    double t_comm = 0.0;  //!< download + upload time (s)
    double t_comm_down = 0.0; //!< global-model download time (s)
    double t_comm_up = 0.0;   //!< encoded-update upload time (s)
    double t_round = 0.0; //!< t_comp + t_comm
    double e_comp = 0.0;  //!< Eq. 2 energy (J)
    double e_comm = 0.0;  //!< Eq. 3 energy (J)
    double e_wait = 0.0;  //!< straggler-wait energy (set by the simulator
                          //!< once the round's gating time is known)
    double e_total = 0.0; //!< participant energy, Eq. 5 first case
};

/**
 * Effective sustained training throughput (FLOP/s) of a device given the
 * batch size and interference — the core of the straggler model:
 * small batches underutilize the hardware, co-runners steal cycles, and
 * memory pressure (large B, or RC-heavy models on small-RAM tiers) causes
 * superlinear slowdown.
 */
double effectiveFlops(const DeviceProfile &dev, const WorkloadCost &cost,
                      int batch, std::size_t param_bytes,
                      const InterferenceState &interference);

/**
 * Full per-round cost of a participating client (Eq. 2 + Eq. 3).
 */
RoundCost clientRoundCost(const DeviceProfile &dev, const WorkloadCost &cost,
                          const LocalWorkSpec &work,
                          const InterferenceState &interference,
                          const NetworkState &network);

/**
 * Time and energy of one transmission attempt.
 */
struct TxCost
{
    double time = 0.0;   //!< airtime (s)
    double energy = 0.0; //!< radio energy (J)
};

/**
 * Cost of one one-way upload of `payload_bytes` proxy bytes under the
 * client's current network state — Eq. 3 applied to the (possibly
 * codec-encoded) upload payload alone. The caller supplies the actual
 * payload; an uncompressed upload passes the model's param_bytes. This
 * is what a failed upload burns, and what every retry re-burns;
 * fl::round::chargeRetries charges it per retransmission.
 */
TxCost uploadCost(const WorkloadCost &cost, std::size_t payload_bytes,
                  const NetworkState &network);

} // namespace device
} // namespace fedgpo

#endif // FEDGPO_DEVICE_COST_MODEL_H_
