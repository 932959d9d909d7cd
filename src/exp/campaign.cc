#include "exp/campaign.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "fl/round/trace_writer.h"
#include "obs/metrics.h"
#include "obs/tracing/trace.h"
#include "optim/fixed.h"
#include "util/logging.h"

namespace fedgpo {
namespace exp {

namespace {

void
finalize(CampaignResult &out)
{
    if (!out.accuracy.empty()) {
        out.final_accuracy = out.accuracy.back();
        out.best_accuracy =
            *std::max_element(out.accuracy.begin(), out.accuracy.end());
        out.avg_round_time =
            out.total_time / static_cast<double>(out.round_time.size());
    }
}

} // namespace

void
CampaignTraceObserver::onRoundEnd(const fl::round::RoundContext &ctx)
{
    const fl::RoundResult &r = ctx.result;
    out_.accuracy.push_back(r.test_accuracy);
    out_.round_time.push_back(r.round_time);
    out_.round_energy.push_back(r.energy_total);
    out_.train_loss.push_back(r.train_loss);
    out_.dropped.push_back(r.droppedCount());
    out_.dropped_straggler.push_back(r.dropped_straggler);
    out_.dropped_diverged.push_back(r.dropped_diverged);
    out_.dropped_offline += r.dropped_offline;
    out_.dropped_crashed += r.dropped_crashed;
    out_.dropped_upload += r.dropped_upload;
    out_.upload_retries += r.upload_retries;
    if (r.aborted)
        ++out_.rounds_aborted;
    out_.bytes_up_total += r.bytes_up_total;
    out_.bytes_down_total += r.bytes_down_total;
    out_.total_energy += r.energy_total;
    out_.total_time += r.round_time;
    for (const auto &p : r.participants) {
        out_.energy_by_category[static_cast<std::size_t>(p.category)] +=
            p.cost.e_total;
    }
    const bool was_converged = tracker_.converged();
    tracker_.add(r.test_accuracy);
    if (!was_converged && tracker_.converged()) {
        out_.converged_round = tracker_.convergedRound();
        out_.time_to_convergence = out_.total_time;
        out_.energy_to_convergence = out_.total_energy;
    }
}

double
CampaignResult::ppw() const
{
    const double energy = converged_round > 0 ? energy_to_convergence
                                              : total_energy;
    return energy > 0.0 ? 1.0 / energy : 0.0;
}

double
CampaignResult::timeToAccuracy(double target) const
{
    double time = 0.0;
    for (std::size_t i = 0; i < accuracy.size(); ++i) {
        time += round_time[i];
        if (accuracy[i] >= target)
            return time;
    }
    return total_time;
}

double
CampaignResult::energyToAccuracy(double target) const
{
    double energy = 0.0;
    for (std::size_t i = 0; i < accuracy.size(); ++i) {
        energy += round_energy[i];
        if (accuracy[i] >= target)
            return energy;
    }
    return total_energy;
}

double
CampaignResult::ppwAt(double target) const
{
    const double energy = energyToAccuracy(target);
    return energy > 0.0 ? 1.0 / energy : 0.0;
}

double
CampaignResult::speedupOver(const CampaignResult &baseline) const
{
    const double mine = converged_round > 0 ? time_to_convergence
                                            : total_time;
    const double theirs = baseline.converged_round > 0
                              ? baseline.time_to_convergence
                              : baseline.total_time;
    return mine > 0.0 ? theirs / mine : 0.0;
}

CampaignResult
runCampaign(const Scenario &scenario, optim::ParamOptimizer &policy,
            int rounds)
{
    assert(rounds > 0);
    fl::FlSimulator sim(scenario.toFlConfig());
    fl::ConvergenceTracker tracker;
    CampaignResult out;
    out.policy = policy.name();
    out.scenario = scenario.name;

    CampaignTraceObserver observer(out, tracker);
    sim.addRoundObserver(&observer);
    auto trace = fl::round::openRoundTrace(obs::tracing::outputDir(),
                                           scenario.name + "-" + out.policy);
    if (trace)
        sim.addRoundObserver(trace.get());

    // Throttled per-round progress at Info: at most one line every ~2
    // host seconds (plus the final round), so long campaigns stay
    // followable without drowning the log.
    using clock = std::chrono::steady_clock;
    const bool progress = util::logLevel() <= util::LogLevel::Info;
    const auto t_start = clock::now();
    auto t_last = t_start - std::chrono::seconds(10);
    for (int r = 0; r < rounds; ++r) {
        sim.runRound(policy);
        if (!progress)
            continue;
        const auto now = clock::now();
        if (now - t_last < std::chrono::seconds(2) && r + 1 < rounds)
            continue;
        t_last = now;
        const double elapsed_s =
            std::chrono::duration<double>(now - t_start).count();
        const double eta_s = r + 1 < rounds
                                 ? elapsed_s / (r + 1) * (rounds - r - 1)
                                 : 0.0;
        const double acc =
            out.accuracy.empty() ? 0.0 : out.accuracy.back();
        char line[160];
        std::snprintf(line, sizeof line,
                      "campaign %s/%s: round %d/%d acc=%.4f "
                      "elapsed=%.1fs eta=%.1fs",
                      scenario.name.c_str(), out.policy.c_str(), r + 1,
                      rounds, acc, elapsed_s, eta_s);
        util::logInfo(line);
    }

    if (trace)
        sim.removeRoundObserver(trace.get());
    sim.removeRoundObserver(&observer);
    finalize(out);
    obs::finishRun();
    return out;
}

CampaignResult
runCampaignWithWarmup(const Scenario &scenario,
                      optim::ParamOptimizer &policy, int warmup_rounds,
                      int rounds)
{
    if (warmup_rounds > 0) {
        Scenario warm = scenario;
        warm.seed = scenario.seed ^ 0xc0ffee;
        fl::FlSimulator sim(warm.toFlConfig());
        for (int r = 0; r < warmup_rounds; ++r)
            sim.runRound(policy);
    }
    return runCampaign(scenario, policy, rounds);
}

CampaignResult
runCampaignFixed(const Scenario &scenario, const fl::GlobalParams &params,
                 int rounds)
{
    optim::FixedOptimizer fixed(params, "Fixed " + params.toString());
    return runCampaign(scenario, fixed, rounds);
}

fl::GlobalParams
gridSearchBestFixed(const Scenario &scenario,
                    const std::vector<fl::GlobalParams> &grid,
                    int probe_rounds)
{
    assert(!grid.empty());
    fl::GlobalParams best = grid.front();
    double best_score = -1.0;
    for (const auto &params : grid) {
        Scenario probe = scenario;
        probe.seed = scenario.seed ^ 0x5bd1e995;
        CampaignResult r = runCampaignFixed(probe, params, probe_rounds);
        // Score: PPW with an accuracy gate — a config that never learns
        // cannot be "best" however cheap it is.
        const double score = r.ppw() * std::max(r.best_accuracy, 1e-3);
        if (score > best_score) {
            best_score = score;
            best = params;
        }
    }
    util::logInfo("gridSearchBestFixed: " + best.toString());
    return best;
}

std::vector<fl::GlobalParams>
coarseGrid()
{
    std::vector<fl::GlobalParams> grid;
    for (int b : {4, 8, 16})
        for (int e : {5, 10, 20})
            for (int k : {10, 20})
                grid.push_back(fl::GlobalParams{b, e, k});
    return grid;
}

} // namespace exp
} // namespace fedgpo
