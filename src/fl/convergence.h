/**
 * @file
 * Convergence detection: "the training loss settles to a certain value
 * while the training accuracy gets to an error range of the value
 * achieved by the baseline in an ideal environment" (paper Section 5.1,
 * citing Mitchell's definition).
 */

#ifndef FEDGPO_FL_CONVERGENCE_H_
#define FEDGPO_FL_CONVERGENCE_H_

#include <cstddef>
#include <vector>

namespace fedgpo {
namespace fl {

/**
 * Streaming convergence detector over the per-round test accuracy.
 *
 * Declares convergence at the first round whose trailing-window accuracy
 * improvement falls below epsilon while accuracy exceeds a floor (so a
 * model stuck at chance level is never "converged").
 */
class ConvergenceTracker
{
  public:
    /**
     * @param window     Trailing window length (rounds).
     * @param epsilon    Maximum accuracy improvement across the window
     *                   still counted as "settled".
     * @param floor      Minimum accuracy for convergence to be meaningful.
     */
    explicit ConvergenceTracker(std::size_t window = 5,
                                double epsilon = 0.005, double floor = 0.5);

    /** Record one round's test accuracy. */
    void add(double accuracy);

    /** True once the settle criterion has been met. */
    bool converged() const { return converged_round_ >= 0; }

    /** Round index (1-based) where convergence was declared, or -1. */
    int convergedRound() const { return converged_round_; }

  private:
    std::size_t window_;
    double epsilon_;
    double floor_;
    std::vector<double> history_;
    int converged_round_ = -1;
};

/**
 * Offline variant: first 1-based round at which an accuracy trace reaches
 * `target`; -1 if never. Used for time-to-accuracy comparisons.
 */
int roundsToAccuracy(const std::vector<double> &accuracy, double target);

} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_CONVERGENCE_H_
