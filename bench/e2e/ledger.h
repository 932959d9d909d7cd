/**
 * @file
 * The benchmark's metric ledger: the end-to-end and per-layer metric
 * tables (names, units, directions — mirrored in BENCHMARK.json, which
 * also holds the regression bounds) and their computation from a
 * workload's campaign records.
 *
 * End-to-end metrics come from timed campaigns: campaign and set-up time
 * and peak RSS are medians over campaigns; the round-time median and
 * tail, the rates and the folded-dispatch share pool the rounds, work and
 * dispatches of every timed campaign. Each timed campaign's host times
 * are first scaled to the reference host's speed by the speed measured
 * around it (host_speed.h). Per-layer metrics come
 * from the profiled campaigns (host time by stage, layer and kernel),
 * the timed ones (the modeled-clock split, faults, traffic) and the
 * convergence campaign (time and energy to the target); profiled
 * campaigns never feed end-to-end numbers.
 */

#ifndef FEDGPO_BENCH_E2E_LEDGER_H_
#define FEDGPO_BENCH_E2E_LEDGER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "campaign.h"

namespace fedgpo {
namespace e2e {

/** One reported metric. */
struct MetricDef
{
    std::string name;
    std::string unit;
    bool higher_better = false;
};

/** End-to-end metrics, in report order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics, in report order. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * A same-seed regression bound on one modeled outcome of the convergence
 * campaign (a `modeled.*` per-layer metric). These outcomes depend on
 * the seed far more than host times do, so they carry no bound across
 * seeds; for one seed they repeat exactly under default kernels.
 */
struct ModeledBound
{
    std::string name;
    double bound = 0.0;
    bool absolute = false; //!< bound in the metric's unit, not a share
};

/** The bounds compare mode applies to two runs of one seed. */
const std::vector<ModeledBound> &modeledBounds();

/** One metric's value with its spread over campaigns. */
struct MetricValue
{
    double value = 0.0; //!< the headline number
    double q1 = 0.0;    //!< first quartile of the per-campaign values
    double q3 = 0.0;    //!< third quartile of the per-campaign values
    std::size_t n = 0;  //!< campaigns behind the value
};

/** Every campaign of one workload in one benchmark run. */
struct WorkloadRun
{
    const Workload *workload = nullptr;
    std::vector<CampaignRecord> converge; //!< at most one
    std::vector<CampaignRecord> timed;
    std::vector<CampaignRecord> profiled;
    std::vector<CampaignRecord> replay; //!< at most one
};

/** End-to-end metrics of a run with at least one timed campaign. */
std::map<std::string, MetricValue> endToEnd(const WorkloadRun &run);

/** The `modeled.*` metrics of the run's convergence campaign. */
std::map<std::string, MetricValue> modeled(const WorkloadRun &run);

/**
 * Per-layer metrics of a run with at least one timed and one profiled
 * campaign.
 */
std::map<std::string, MetricValue> perLayer(const WorkloadRun &run);

/** Linear-interpolation quantile (0 for an empty list). */
double quantile(std::vector<double> values, double q);

} // namespace e2e
} // namespace fedgpo

#endif // FEDGPO_BENCH_E2E_LEDGER_H_
