#include "device/power_model.h"

#include <cassert>
#include <cmath>

namespace fedgpo {
namespace device {

namespace {

// Training duty cycles: on-device DNN training keeps the GPU nearly
// saturated with the CPU at a partial load preparing batches.
constexpr double kCpuTrainingDuty = 0.6;
constexpr double kGpuTrainingDuty = 0.95;

} // namespace

PowerModel::PowerModel(const DeviceProfile &profile)
    : profile_(profile)
{
}

int
PowerModel::steps(Unit unit) const
{
    return unit == Unit::Cpu ? profile_.cpu_vf_steps : profile_.gpu_vf_steps;
}

double
PowerModel::stepFrequencyFraction(Unit unit, int step) const
{
    const int n = steps(unit);
    assert(step >= 0 && step < n);
    return static_cast<double>(step + 1) / static_cast<double>(n);
}

double
PowerModel::busyPower(Unit unit, int step) const
{
    const double peak =
        unit == Unit::Cpu ? profile_.cpu_peak_w : profile_.gpu_peak_w;
    // Idle floor split between the two units proportionally to peak.
    const double floor = profile_.idle_w * peak /
                         (profile_.cpu_peak_w + profile_.gpu_peak_w);
    const double f = stepFrequencyFraction(unit, step);
    return floor + (peak - floor) * f * f * f;
}

double
PowerModel::trainingPower() const
{
    const int cpu_top = profile_.cpu_vf_steps - 1;
    const int gpu_top = profile_.gpu_vf_steps - 1;
    return kCpuTrainingDuty * busyPower(Unit::Cpu, cpu_top) +
           kGpuTrainingDuty * busyPower(Unit::Gpu, gpu_top);
}

double
PowerModel::waitPower() const
{
    // Wakelock + warm radio + resident runtime: a fixed fraction of the
    // training power above deep idle.
    return profile_.idle_w + 0.5 * (trainingPower() - profile_.idle_w);
}

} // namespace device
} // namespace fedgpo
