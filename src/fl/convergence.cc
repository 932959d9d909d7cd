#include "fl/convergence.h"

#include <algorithm>

namespace fedgpo {
namespace fl {

ConvergenceTracker::ConvergenceTracker(std::size_t window, double epsilon,
                                       double floor)
    : window_(std::max<std::size_t>(window, 2)), epsilon_(epsilon),
      floor_(floor)
{
}

void
ConvergenceTracker::add(double accuracy)
{
    history_.push_back(accuracy);
    if (converged_round_ >= 0 || history_.size() < window_)
        return;
    const std::size_t n = history_.size();
    const double newest = history_[n - 1];
    const double oldest = history_[n - window_];
    if (newest >= floor_ && newest - oldest < epsilon_)
        converged_round_ = static_cast<int>(n);
}

int
roundsToAccuracy(const std::vector<double> &accuracy, double target)
{
    for (std::size_t i = 0; i < accuracy.size(); ++i)
        if (accuracy[i] >= target)
            return static_cast<int>(i + 1);
    return -1;
}

} // namespace fl
} // namespace fedgpo
