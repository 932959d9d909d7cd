/**
 * @file
 * Campaign runner: executes a full FL run (one scenario, one policy) and
 * summarizes it into the quantities the paper plots — PPW, convergence
 * round/time, average round time, accuracy — plus the raw per-round
 * traces for the figure benches.
 */

#ifndef FEDGPO_EXP_CAMPAIGN_H_
#define FEDGPO_EXP_CAMPAIGN_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "fl/convergence.h"
#include "fl/round/observer.h"
#include "optim/optimizer.h"

namespace fedgpo {
namespace exp {

/**
 * Summary of one campaign.
 */
struct CampaignResult
{
    std::string policy;
    std::string scenario;

    // Per-round traces (accumulated by a fl::round::RoundObserver from
    // each finished round).
    std::vector<double> accuracy;
    std::vector<double> round_time;
    std::vector<double> round_energy;
    std::vector<double> train_loss;
    std::vector<std::size_t> dropped;           //!< total drops per round
    std::vector<std::size_t> dropped_straggler; //!< deadline drops
    std::vector<std::size_t> dropped_diverged;  //!< non-finite rejections

    // Fault-injection aggregates (all zero with faults off).
    std::size_t dropped_offline = 0; //!< devices offline at selection
    std::size_t dropped_crashed = 0; //!< mid-training crashes
    std::size_t dropped_upload = 0;  //!< uploads lost after retries
    std::size_t upload_retries = 0;  //!< retransmissions performed
    std::size_t rounds_aborted = 0;  //!< rounds that missed quorum

    // Communication totals (modeled wire bytes, exact integers).
    std::uint64_t bytes_up_total = 0;
    std::uint64_t bytes_down_total = 0;

    // Aggregates.
    double total_energy = 0.0;      //!< J over the whole campaign
    double total_time = 0.0;        //!< simulated s over the campaign
    double avg_round_time = 0.0;
    double final_accuracy = 0.0;
    double best_accuracy = 0.0;
    int converged_round = -1;       //!< settle criterion (1-based), -1 if
                                    //!< never
    double time_to_convergence = 0.0;   //!< s until converged_round
    double energy_to_convergence = 0.0; //!< J until converged_round

    // Per-category energy, for the Fig. 5 per-device breakdown.
    std::array<double, 3> energy_by_category = {0.0, 0.0, 0.0};

    /**
     * Global PPW proxy: useful progress per Joule. Convergence energy is
     * used when the run converged, total energy otherwise (a run that
     * never converges scores the worst of both worlds, as in the paper's
     * straggler-degraded baselines).
     */
    double ppw() const;

    /** Convergence-time speedup of this run relative to a baseline. */
    double speedupOver(const CampaignResult &baseline) const;

    /**
     * Simulated seconds until the accuracy trace first reaches `target`;
     * the full campaign time when it never does (the fair worst case for
     * baselines whose accuracy degrades, per Section 5.2).
     */
    double timeToAccuracy(double target) const;

    /** Joules until the accuracy trace first reaches `target` (ditto). */
    double energyToAccuracy(double target) const;

    /**
     * Energy-to-target PPW: 1 / energyToAccuracy(target). This is the
     * comparison metric of the figure benches — performance per watt at
     * matched model quality, exactly the paper's "PPW normalized to
     * Fixed (Best)" once divided by the baseline's value.
     */
    double ppwAt(double target) const;
};

/**
 * Round observer that folds each finished round into a CampaignResult
 * as rounds complete — the single instrumentation path shared by the
 * campaign runners, the figure benches, and examples (no post-hoc
 * copying out of RoundResult).
 */
class CampaignTraceObserver : public fl::round::RoundObserver
{
  public:
    /** Both references must outlive the observer's registration. */
    CampaignTraceObserver(CampaignResult &out,
                          fl::ConvergenceTracker &tracker)
        : out_(out), tracker_(tracker)
    {
    }

    void onRoundEnd(const fl::round::RoundContext &ctx) override;

  private:
    CampaignResult &out_;
    fl::ConvergenceTracker &tracker_;
};

/**
 * Run `rounds` aggregation rounds of the scenario under the policy.
 *
 * When the FEDGPO_TRACE_OUT environment variable is set, every campaign
 * additionally streams a per-round JSONL trace
 * (fl::round::openRoundTrace) into that directory, named
 * `<scenario>-<policy>.jsonl` with every character outside
 * [A-Za-z0-9_-] mapped to '-'.
 */
CampaignResult runCampaign(const Scenario &scenario,
                           optim::ParamOptimizer &policy, int rounds);

/**
 * Warm-start a learning policy, then measure it: the policy first drives
 * `warmup_rounds` on a differently-seeded copy of the scenario (training
 * its internal state — Q-tables, GP posterior, EG weights...), after
 * which a fresh simulator instance is measured for `rounds`.
 *
 * This mirrors the paper's evaluation regime: FedGPO's numbers are
 * steady-state numbers ("the reward converges after 30-40 aggregation
 * rounds... after the convergence FedGPO selects more efficient global
 * parameters"), and the Fixed (Best) baseline likewise receives its
 * offline grid search before measurement.
 */
CampaignResult runCampaignWithWarmup(const Scenario &scenario,
                                     optim::ParamOptimizer &policy,
                                     int warmup_rounds, int rounds);

/**
 * Run a campaign with a fixed (B, E, K) — the Fixed baseline and the
 * grid-sweep benches.
 */
CampaignResult runCampaignFixed(const Scenario &scenario,
                                const fl::GlobalParams &params, int rounds);

/**
 * Grid-search for the most energy-efficient fixed configuration —
 * produces the paper's "Fixed (Best)" baseline. Short probe campaigns
 * score each grid point by PPW.
 *
 * @param scenario     Scenario to probe (its seed is varied per probe).
 * @param grid         Candidate configurations.
 * @param probe_rounds Rounds per probe campaign.
 */
fl::GlobalParams gridSearchBestFixed(const Scenario &scenario,
                                     const std::vector<fl::GlobalParams> &grid,
                                     int probe_rounds);

/**
 * The coarse grid used for Fixed (Best) probing (paper Figs. 1/2/7 show
 * the interesting region): B in {4,8,16}, E in {5,10,20}, K in {10,20}.
 */
std::vector<fl::GlobalParams> coarseGrid();

} // namespace exp
} // namespace fedgpo

#endif // FEDGPO_EXP_CAMPAIGN_H_
