/**
 * @file
 * Everything the benchmark prints: the human-readable metric table, the
 * result document (schema fedgpo.e2e_bench.v1, with a run envelope of
 * host and commit metadata), the one-line result object, the comparison
 * of two documents under the BENCHMARK.json bounds, and the check that
 * BENCHMARK.json lists exactly the workloads and metrics this binary
 * reports.
 */

#ifndef FEDGPO_BENCH_E2E_REPORT_H_
#define FEDGPO_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "ledger.h"

namespace fedgpo {
namespace e2e {

/** How the benchmark was run (the envelope's settings half). */
struct RunSettings
{
    std::uint64_t seed = 42;
    double seconds = 30.0; //!< cap on one workload's timed campaigns
    bool smoke = false;
    bool layers = false; //!< --trace 1: profiled twins, per-layer metrics
};

/** The outcome of one workload. */
struct WorkloadResult
{
    WorkloadRun run;
    int attempted = 0; //!< campaign processes started
    int failed = 0;    //!< crashed, failed a check, or missed the target
    std::vector<std::string> failures; //!< output checks that failed
    std::map<std::string, MetricValue> end_to_end;
    std::map<std::string, MetricValue> modeled;   //!< convergence outcomes
    std::map<std::string, MetricValue> per_layer; //!< empty unless layers

    /** True when every output check passed. */
    bool ok() const { return failures.empty(); }
};

/** Metric table of one workload, one metric per line with its unit. */
void printTable(std::ostream &os, const WorkloadResult &result);

/** The full result document. */
std::string documentJson(const RunSettings &settings,
                         const std::vector<WorkloadResult> &results);

/**
 * The one-line result object of one workload: correct, attempted,
 * failed, and the end-to-end (or, with `layers`, per-layer) metrics.
 */
std::string resultLine(const WorkloadResult &result, bool layers);

/**
 * Compare two result documents metric by metric: the end-to-end metrics
 * under the bounds in `benchmark_json`, and, when both documents ran the
 * same seed, the modeled outcomes of the convergence campaign under
 * modeledBounds(). Prints better / worse / unchanged / unresolved per
 * (workload, metric). Returns the process exit code: 0 when nothing got
 * worse, 1 when something did, 2 on unreadable input.
 */
int compareDocuments(const std::string &base_path,
                     const std::string &head_path,
                     const std::string &benchmark_json);

/**
 * Check that `benchmark_json` names exactly this binary's workloads and
 * metrics, with the same units and directions. Returns true when they
 * match; prints every difference to `err` otherwise.
 */
bool checkManifest(const std::string &benchmark_json, std::ostream &err);

} // namespace e2e
} // namespace fedgpo

#endif // FEDGPO_BENCH_E2E_REPORT_H_
