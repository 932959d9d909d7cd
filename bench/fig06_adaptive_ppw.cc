/**
 * @file
 * Figure 6: adaptive per-device parameters resolve the straggler problem
 * while guaranteeing convergence — (a) accuracy over rounds, (b) average
 * training time per round, (c) global PPW, fixed vs adaptive.
 *
 * Paper shape: adaptive improves average round time by 2.3x and global
 * PPW by 3.6x while the accuracy-vs-round curve stays on top of the
 * fixed one.
 */

#include <iostream>

#include "bench_util.h"
#include "fl/convergence.h"
#include "optim/callback_policy.h"
#include "optim/fixed.h"
#include "optim/oracle.h"
#include "util/table.h"

using namespace fedgpo;

int
main()
{
    benchutil::banner(
        "Figure 6: adaptive parameters improve round time and PPW while "
        "guaranteeing convergence",
        "2.3x average round time, 3.6x global PPW, convergence curve "
        "unchanged");

    auto scenario = benchutil::scenarioFor(models::Workload::CnnMnist,
                                           exp::Variance::None,
                                           data::Distribution::IidIdeal);
    const int rounds = benchutil::comparisonRounds();
    const auto fixed_params = benchutil::bestFixed(scenario);

    optim::FixedOptimizer fixed(fixed_params, "Fixed");
    auto fixed_run = exp::runCampaign(scenario, fixed, rounds);

    // Oracle adaptive: a fresh simulator is built inside runCampaign, so
    // the policy binds to it lazily through a pointer set per campaign.
    fl::FlSimulator sim(scenario.toFlConfig());
    optim::CallbackPolicy adaptive(
        "Adaptive", fixed_params.clients,
        [&sim, &fixed_params](const std::vector<fl::DeviceObservation> &obs,
                              const nn::LayerCensus &) {
            const fl::PerDeviceParams base{fixed_params.batch,
                                           fixed_params.epochs};
            const double target = optim::oracleTargetTime(sim, obs, base);
            std::vector<fl::PerDeviceParams> out;
            out.reserve(obs.size());
            for (const auto &o : obs)
                out.push_back(optim::oracleParamsFor(sim, o.client_id,
                                                     target));
            return out;
        });
    exp::CampaignResult adaptive_run;
    adaptive_run.policy = adaptive.name();
    {
        fl::ConvergenceTracker tracker;
        for (int r = 0; r < rounds; ++r) {
            auto res = sim.runRound(adaptive);
            adaptive_run.accuracy.push_back(res.test_accuracy);
            adaptive_run.round_time.push_back(res.round_time);
            adaptive_run.round_energy.push_back(res.energy_total);
            adaptive_run.total_energy += res.energy_total;
            adaptive_run.total_time += res.round_time;
            const bool was = tracker.converged();
            tracker.add(res.test_accuracy);
            if (!was && tracker.converged()) {
                adaptive_run.converged_round = tracker.convergedRound();
                adaptive_run.time_to_convergence =
                    adaptive_run.total_time;
                adaptive_run.energy_to_convergence =
                    adaptive_run.total_energy;
            }
        }
        adaptive_run.final_accuracy = adaptive_run.accuracy.back();
        adaptive_run.best_accuracy = *std::max_element(
            adaptive_run.accuracy.begin(), adaptive_run.accuracy.end());
        adaptive_run.avg_round_time =
            adaptive_run.total_time / rounds;
    }

    const double target = benchutil::accuracyTarget(fixed_run);

    // Panel (a): convergence curves.
    util::Table curve({"round", "fixed acc", "adaptive acc"});
    for (std::size_t r = 0; r < fixed_run.accuracy.size(); r += 2) {
        curve.addRow({std::to_string(r + 1),
                      util::fmt(fixed_run.accuracy[r], 3),
                      util::fmt(adaptive_run.accuracy[r], 3)});
    }
    curve.print(std::cout, "Figure 6(a): test accuracy per round");
    curve.writeCsv("fig06a_convergence.csv");

    // Panels (b) and (c): round-time and PPW ratios.
    util::Table summary({"metric", "fixed", "adaptive", "improvement"});
    summary.addRow({"avg round time (s)",
                    util::fmt(fixed_run.avg_round_time, 1),
                    util::fmt(adaptive_run.avg_round_time, 1),
                    util::fmtX(fixed_run.avg_round_time /
                               adaptive_run.avg_round_time)});
    summary.addRow(
        {"energy to target acc (J)",
         util::fmt(fixed_run.energyToAccuracy(target), 0),
         util::fmt(adaptive_run.energyToAccuracy(target), 0),
         util::fmtX(adaptive_run.ppwAt(target) / fixed_run.ppwAt(target))});
    summary.addRow({"best accuracy", util::fmt(fixed_run.best_accuracy, 3),
                    util::fmt(adaptive_run.best_accuracy, 3), "-"});
    std::cout << "\n";
    summary.print(std::cout,
                  "Figure 6(b,c): paper reports 2.3x round time, "
                  "3.6x PPW");
    summary.writeCsv("fig06bc_summary.csv");
    return 0;
}
