/**
 * @file
 * Shared helpers for the figure/table bench harnesses.
 *
 * Every bench prints the series the corresponding paper figure plots,
 * normalized the way the paper normalizes them, plus the paper's reported
 * shape for side-by-side comparison, and mirrors its rows into a CSV in
 * the working directory. FEDGPO_BENCH_FULL=1 switches to paper-scale
 * fleets/rounds; the default is a single-core-friendly scale that
 * preserves the tier mix, the parameter grids, and the variance processes.
 */

#ifndef FEDGPO_BENCH_BENCH_UTIL_H_
#define FEDGPO_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <iostream>
#include <string>

#include "exp/campaign.h"
#include "runtime/runtime_config.h"
#include "util/stats.h"
#include "util/table.h"
#include "exp/scenario.h"

namespace fedgpo {
namespace benchutil {

/** Measured campaign length for comparison benches. */
inline int
comparisonRounds()
{
    return exp::fullScale() ? 100 : 15;
}

/**
 * Warmup rounds for learning policies before measurement (see
 * exp::runCampaignWithWarmup). The paper's Q-tables converge after 30-40
 * rounds at 200 devices; the scaled-down quick fleet needs proportionally
 * more rounds for the same number of per-state visits.
 */
inline int
warmupRounds()
{
    return exp::fullScale() ? 40 : 80;
}

/**
 * Shorter warmup for the low-dimensional learners (BO's GP posterior,
 * GA's population, FedEx's 150 weights, ABS's tiny DQN) — they saturate
 * long before FedGPO's 2304x30 tables do.
 */
inline int
shortWarmupRounds()
{
    return 30;
}

/** Campaign length for parameter-sweep benches (many configs). */
inline int
sweepRounds()
{
    return exp::fullScale() ? 60 : 10;
}

/** Scenario with bench-scale data sizes applied. */
inline exp::Scenario
scenarioFor(models::Workload w, exp::Variance v, data::Distribution dist,
            std::uint64_t seed = 42)
{
    exp::Scenario s = exp::makeScenario(w, v, dist, seed);
    if (!exp::fullScale()) {
        s.n_devices = 48;
        s.train_samples = 1200;
        // A large evaluation set keeps the per-round accuracy signal's
        // sampling noise well below Eq. 1's improvement cap.
        s.test_samples = 400;
    }
    return s;
}

/**
 * Matched-quality accuracy target for PPW comparisons: slightly below the
 * baseline's plateau, so every policy is scored on reaching the same
 * model quality (see EXPERIMENTS.md, "metrics").
 */
inline double
accuracyTarget(const exp::CampaignResult &baseline)
{
    return std::max(0.3, baseline.best_accuracy - 0.03);
}

/**
 * The Fixed (Best) baseline configuration. The paper identifies
 * (B, E, K) = (8, 10, 20) as the most energy-efficient fixed setting for
 * CNN-MNIST under IID data (Figs. 1 and 7); quick mode reuses it
 * directly, full mode re-derives it by grid search as the paper does.
 */
inline fl::GlobalParams
bestFixed(const exp::Scenario &scenario)
{
    if (!exp::fullScale())
        return fl::GlobalParams{8, 10, 20};
    return exp::gridSearchBestFixed(scenario, exp::coarseGrid(), 15);
}

/** Standard bench banner. */
inline void
banner(const std::string &experiment, const std::string &paper_claim)
{
    std::cout << "=== " << experiment << " ===\n";
    std::cout << "scale: "
              << (exp::fullScale() ? "FULL (paper scale)"
                                   : "quick (set FEDGPO_BENCH_FULL=1 for "
                                     "paper scale)")
              << "\n";
    // Host parallelism is reported for reproducibility of wall-clock
    // numbers only; modeled time/energy are thread-count-invariant.
    std::cout << "threads: " << runtime::resolveThreads(0)
              << " (override with FEDGPO_THREADS)\n";
    std::cout << "paper reports: " << paper_claim << "\n\n";
}

/** Policies selectable in comparison benches. */
enum class Policy { FixedBest, Bo, Ga, FedGpo, FedEx, Abs };

/**
 * Run one scenario under a set of policies, warm-starting every learning
 * policy (see exp::runCampaignWithWarmup), and return (name, result)
 * pairs in the order given.
 */
std::vector<std::pair<std::string, exp::CampaignResult>>
runComparison(const exp::Scenario &scenario,
              const std::vector<Policy> &policies);

} // namespace benchutil
} // namespace fedgpo

#endif // FEDGPO_BENCH_BENCH_UTIL_H_
