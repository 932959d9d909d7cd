/**
 * @file
 * Wireless network model: Gaussian bandwidth variability and
 * signal-strength-dependent transmission power (paper Eq. 3 and Section
 * 4.2 "Runtime variance").
 *
 * The paper generates random bandwidth following a Gaussian distribution
 * (citing [12, 30]) and notes that transmission latency and energy grow
 * exponentially at weak signal strength. Both behaviours are implemented
 * here: bandwidth is drawn per device per round from N(mean, sd) (clamped
 * to a physical range), signal strength is derived from bandwidth, and
 * P_TX rises exponentially as the signal weakens.
 */

#ifndef FEDGPO_DEVICE_NETWORK_MODEL_H_
#define FEDGPO_DEVICE_NETWORK_MODEL_H_

#include "util/rng.h"

namespace fedgpo {
namespace device {

/** Per-device per-round network condition. */
struct NetworkState
{
    double bandwidth_mbps = 80.0;  //!< effective link bandwidth
    double signal = 0.8;           //!< normalized signal strength [0, 1]
};

/** Threshold below which the paper's S_Network state is "bad" (Table 1). */
inline constexpr double kBadNetworkMbps = 40.0;

/**
 * Stochastic bandwidth process.
 */
class NetworkModel
{
  public:
    /**
     * @param unstable True for the paper's "unstable network" scenario
     *                 (lower mean, much higher variance).
     */
    explicit NetworkModel(bool unstable);

    /** Draw the network condition for one device for one round. */
    NetworkState sample(util::Rng &rng) const;

    /**
     * Transmission power at a given signal strength (Eq. 3's P_TX^S):
     * P_TX = base * exp(k * (1 - S)); weak signal costs exponentially
     * more energy per second of airtime.
     */
    static double txPower(double signal);

    /**
     * Transmission time for a payload (Eq. 3's t_TX).
     * @param bytes          Payload size.
     * @param bandwidth_mbps Link bandwidth.
     */
    static double txTime(double bytes, double bandwidth_mbps);

  private:
    bool unstable_;
    double mean_;
    double sd_;
};

} // namespace device
} // namespace fedgpo

#endif // FEDGPO_DEVICE_NETWORK_MODEL_H_
