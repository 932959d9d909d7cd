/**
 * @file
 * The four named FedGPO campaigns of the end-to-end benchmark.
 *
 * Each workload runs two kinds of campaign. Timed campaigns are short,
 * so that a run averages host time over many seeds: host time per
 * campaign depends on the seed's fleet and data by 5-10%, and only more
 * campaigns per run shrink that spread. A run makes a fixed number of
 * them. One convergence campaign per run trains until the accuracy
 * target and gives the modeled-clock metrics.
 *
 * Each workload loads a different layer of the simulator, so that an
 * optimization of one layer has a workload that exercises it and one
 * that bypasses it (README.md maps every per-layer metric to the
 * end-to-end metric and workload it should move):
 *
 *  - cnn-fedgpo-sync: the paper's headline scenario; the only workload
 *    where the FedGPO controller (core) picks (B, E, K).
 *  - lstm-async-fastmath: the only event-pump (Async) and fast-math
 *    workload, with every dispatch fault process on.
 *  - mobilenet-noniid-topk: the largest conv/depthwise model and the only
 *    codec (TopK) traffic.
 *  - fleet1m-sync-traced: a 1M-device lazy fleet where the control plane
 *    dominates and causal tracing is on.
 */

#ifndef FEDGPO_BENCH_E2E_WORKLOADS_H_
#define FEDGPO_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fl/simulator.h"
#include "obs/metrics.h"

namespace fedgpo {
namespace e2e {

/** One named campaign configuration. */
struct Workload
{
    std::string name;
    std::string why;

    /** Scenario; seed and threads are set per campaign. */
    fl::FlConfig config;

    /** Rounds are driven by core::FedGpo (default config) when true. */
    bool fedgpo = false;

    /** Fixed (B, E, K) for every round when fedgpo is false. */
    fl::GlobalParams params;

    /** tensor::setFastMath(true) for the whole campaign. */
    bool fast_math = false;

    /** obs::tracing Full mode (no on-disk session) for the campaign. */
    bool traced = false;

    /** obs metrics level of a timed (unprofiled) campaign. */
    obs::Level metrics = obs::Level::Off;

    /** Length of a timed campaign: rounds (Sync) or epochs (Async). */
    int rounds = 0;

    /**
     * Timed campaigns per run, so that two runs with one seed time the
     * same fleets; campaigns x rounds >= 96 pooled rounds, so that at
     * least 19 lie beyond the 80th percentile.
     */
    int campaigns = 0;

    /** Test accuracy the convergence campaign must reach... */
    double target = 0.0;

    /** ...within this many rounds. */
    int max_rounds = 0;
};

/** All workloads, in the order a timed set runs them. */
const std::vector<Workload> &workloads();

/** The workload with this name, or null. */
const Workload *findWorkload(const std::string &name);

/** Worker threads of a timed campaign: the host's cores less one, 1-4. */
std::size_t benchThreads();

/**
 * Seed of the campaign-th timed campaign of a run. The convergence
 * campaign uses the run seed itself; timed campaigns step away from it
 * deterministically so a run's medians average over many fleets and
 * datasets.
 */
std::uint64_t campaignSeed(std::uint64_t seed, int campaign);

} // namespace e2e
} // namespace fedgpo

#endif // FEDGPO_BENCH_E2E_WORKLOADS_H_
