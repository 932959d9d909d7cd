/**
 * @file
 * Utilization-based CPU/GPU power model (paper Eq. 2) and the V/F-step
 * power curves it draws from.
 *
 * The paper measures P_busy at each voltage/frequency step with a Monsoon
 * meter; here the curve is the standard DVFS cubic P = P_idle +
 * (P_peak - P_idle) * (f / f_max)^3, sampled at the tier's published
 * number of V/F steps (Table 4). Compute energy for an interval is
 * E = sum_f P_busy^f * t_busy^f + P_idle * t_idle, per processing unit.
 */

#ifndef FEDGPO_DEVICE_POWER_MODEL_H_
#define FEDGPO_DEVICE_POWER_MODEL_H_

#include <cstddef>

#include "device/device_profile.h"

namespace fedgpo {
namespace device {

/** Which processing unit a power query refers to. */
enum class Unit { Cpu, Gpu };

/**
 * Per-tier power curves and Eq. 2 energy accounting.
 */
class PowerModel
{
  public:
    /** Construct for a given tier. */
    explicit PowerModel(const DeviceProfile &profile);

    /** Number of V/F steps of the unit (Table 4). */
    int steps(Unit unit) const;

    /**
     * Normalized frequency of step s (s in [0, steps-1]), linear ladder
     * from f_min = f_max / steps up to f_max.
     */
    double stepFrequencyFraction(Unit unit, int step) const;

    /**
     * Busy power of the unit at V/F step `step` (W). Monotonic in step;
     * the top step dissipates the tier's published peak power.
     */
    double busyPower(Unit unit, int step) const;

    /**
     * Total compute power while training: CPU and GPU both busy at their
     * top steps, derated by the training duty cycle of each unit
     * (on-device training is GPU-heavy with CPU feeding it).
     */
    double trainingPower() const;

    /**
     * Power while a finished participant waits for the round's stragglers:
     * the FL runtime holds a wakelock and keeps the connection warm, so
     * the device sits well above deep idle. This is the "redundant energy
     * consumption" the paper's Fig. 5 shows adaptive parameters removing.
     */
    double waitPower() const;

    /** Eq. 4: idle energy for a device sitting out a round of t seconds. */
    double idleEnergy(double t) const { return profile_.idle_w * t; }

  private:
    const DeviceProfile &profile_;
};

} // namespace device
} // namespace fedgpo

#endif // FEDGPO_DEVICE_POWER_MODEL_H_
