/**
 * @file
 * One benchmark campaign, run in its own process: build the simulator
 * (timed as set-up), run the workload's rounds in a closed loop (each
 * round starts when the previous one returned), check every round's
 * outputs, and return the raw measurements as a CampaignRecord.
 *
 * Every layer is timed from outside, through public APIs only: a
 * RoundObserver for the round stages, a forwarding ParamOptimizer for
 * the controller, and the obs registry's existing model.* / kernel.* /
 * pool.* probes for the layers below.
 */

#ifndef FEDGPO_BENCH_E2E_CAMPAIGN_H_
#define FEDGPO_BENCH_E2E_CAMPAIGN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace fedgpo {
namespace e2e {

/** What a campaign process measures. */
enum class RunMode
{
    Timed,    //!< end-to-end numbers: no instrumentation beyond the workload's
    Profiled, //!< per-layer numbers: obs Profile level + stage observer
    Converge, //!< modeled numbers: timed, but stops at the accuracy target
    Replay,   //!< thread-invariance check: threads = 1, first rounds only
};

/** "timed" / "profiled" / "converge" / "replay". */
const char *runModeName(RunMode mode);

/** Inverse of runModeName; false on an unknown name. */
bool parseRunMode(const std::string &name, RunMode &out);

/** Rounds covered by the thread-invariance digest. */
inline constexpr int kDigestRounds = 5;

/** Raw measurements of one campaign. */
struct CampaignRecord
{
    RunMode mode = RunMode::Timed;
    std::uint64_t seed = 0;

    /**
     * Named sums over the whole campaign (host time, modeled seconds and
     * joules, counts); the ledger turns them into metrics. `setup_s` is
     * construction time, `rounds_s` the sum of the rounds' host time and
     * `peak_rss_mb` the campaign process's peak resident set.
     */
    std::map<std::string, double> tally;

    /** Host ms of every round, in order. */
    std::vector<double> round_ms;

    /**
     * FNV-1a digest of every modeled RoundResult field of the first
     * kDigestRounds rounds plus the global weights after them.
     */
    std::string digest;

    /** Output checks that failed (empty when every check passed). */
    std::vector<std::string> failures;

    /**
     * Host speed around a timed campaign (host_speed.h), set by the
     * parent: the geometric mean of the samples right before and right
     * after it. 1 when not measured.
     */
    double speed = 1.0;

    /** Tally value, 0 when absent. */
    double at(const std::string &key) const;
};

/**
 * Run one campaign of `rounds` rounds in this process. A Converge
 * campaign stops after the round whose test accuracy first reaches the
 * workload's target, but not before kDigestRounds rounds.
 */
CampaignRecord runCampaign(const Workload &workload, std::uint64_t seed,
                           RunMode mode, int rounds);

/** One-line JSON form of a record (the child -> parent message). */
std::string toJson(const CampaignRecord &record);

/** Parse toJson()'s output; false with `error` set on malformed input. */
bool fromJson(const std::string &text, CampaignRecord &out,
              std::string &error);

} // namespace e2e
} // namespace fedgpo

#endif // FEDGPO_BENCH_E2E_CAMPAIGN_H_
