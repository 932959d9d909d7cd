/**
 * @file
 * Figure 1: convergence performance and global PPW of CNN-MNIST across
 * the (B, E, K) grid, normalized to (1, 10, 20).
 *
 * Paper shape: both the convergence round and the global PPW vary
 * strongly with every one of the three parameters; mid-size B (around 8)
 * with moderate E is the most energy-efficient region, and (8, 10, 20)
 * is the best fixed setting.
 */

#include <iostream>

#include "bench_util.h"
#include "fl/convergence.h"
#include "util/table.h"

using namespace fedgpo;

namespace {

struct SweepPoint
{
    fl::GlobalParams params;
    exp::CampaignResult result;
};

void
sweepAxis(const std::string &axis, const std::vector<fl::GlobalParams> &grid,
          const exp::Scenario &scenario, int rounds,
          const exp::CampaignResult &reference, double target,
          util::Table &table)
{
    for (const auto &params : grid) {
        auto r = exp::runCampaignFixed(scenario, params, rounds);
        const double norm_ppw = r.ppwAt(target) / reference.ppwAt(target);
        const int conv = fl::roundsToAccuracy(r.accuracy, target);
        const int ref_conv =
            fl::roundsToAccuracy(reference.accuracy, target);
        const double norm_conv =
            conv > 0 && ref_conv > 0
                ? static_cast<double>(conv) / ref_conv
                : 0.0;
        table.addRow({axis, params.toString(),
                      conv > 0 ? util::fmt(norm_conv, 2) : "n/a",
                      util::fmtX(norm_ppw, 2),
                      util::fmt(r.best_accuracy, 3)});
    }
}

} // namespace

int
main()
{
    benchutil::banner(
        "Figure 1: global impact of (B, E, K) on CNN-MNIST",
        "convergence round and global PPW vary strongly along each "
        "parameter axis; values normalized to (1, 10, 20)");

    auto scenario = benchutil::scenarioFor(models::Workload::CnnMnist,
                                           exp::Variance::None,
                                           data::Distribution::IidIdeal);
    const int rounds = benchutil::sweepRounds();

    // The paper's normalization reference.
    const fl::GlobalParams reference_params{1, 10, 20};
    auto reference = exp::runCampaignFixed(scenario, reference_params,
                                           rounds);
    const double target = benchutil::accuracyTarget(reference);
    std::cout << "reference " << reference_params.toString()
              << ": best acc " << util::fmt(reference.best_accuracy, 3)
              << ", target acc " << util::fmt(target, 3) << "\n\n";

    util::Table table({"axis", "(B, E, K)", "norm conv round", "norm PPW",
                       "best acc"});
    table.addRow({"ref", reference_params.toString(), "1.00", "1.00x",
                  util::fmt(reference.best_accuracy, 3)});

    // Sweep each axis around the paper's default point.
    std::vector<fl::GlobalParams> b_axis, e_axis, k_axis;
    for (int b : {2, 4, 8, 16, 32})
        b_axis.push_back({b, 10, 20});
    for (int e : {1, 5, 15, 20})
        e_axis.push_back({8, e, 20});
    for (int k : {1, 5, 10, 15})
        k_axis.push_back({8, 10, k});

    sweepAxis("B", b_axis, scenario, rounds, reference, target, table);
    sweepAxis("E", e_axis, scenario, rounds, reference, target, table);
    sweepAxis("K", k_axis, scenario, rounds, reference, target, table);

    table.print(std::cout, "Figure 1 (normalized to (1, 10, 20))");
    table.writeCsv("fig01_param_sweep.csv");
    return 0;
}
