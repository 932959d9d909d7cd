/**
 * @file
 * RoundObserver that streams finished rounds to disk as JSON Lines: one
 * self-contained JSON object per aggregation round, cut from the
 * finished RoundContext, carrying per-stage host timings, the
 * aggregation stats, the round summary, fault events, one record per
 * participating client and the policy's decision. See README ("Round
 * traces") for the record schema.
 */

#ifndef FEDGPO_FL_ROUND_TRACE_WRITER_H_
#define FEDGPO_FL_ROUND_TRACE_WRITER_H_

#include <array>
#include <fstream>
#include <memory>
#include <string>

#include "fl/round/observer.h"

namespace fedgpo {
namespace fl {
namespace round {

/**
 * JSONL trace writer. Keeps the round's stage timings and emits a single
 * line at onRoundEnd; flushes on every line so traces survive a crashed
 * run.
 * An unopenable path or a failed write logs one warning (never fatal —
 * tracing must not kill a campaign) and drops subsequent output.
 */
class JsonlTraceWriter : public RoundObserver
{
  public:
    /**
     * Opens @p path for writing (truncates). Check ok() afterwards.
     *
     * @param include_host_timings False omits the host-side wall-clock
     *        fields (stages_ms, metrics) so two runs of the same seeded
     *        campaign produce byte-identical trace files — the contract
     *        the lazy-materialization determinism tests compare against.
     *        Modeled fields are always emitted.
     */
    explicit JsonlTraceWriter(const std::string &path,
                              bool include_host_timings = true);

    /** False when the file could not be opened or a write failed. */
    bool ok() const { return out_.good(); }

    /** Rounds written so far. */
    std::size_t roundsWritten() const { return rounds_written_; }

    void onStage(const RoundContext &ctx, Stage stage,
                 double wall_ms) override;
    void onRoundEnd(const RoundContext &ctx) override;

  private:
    /** Warn once (with the path) when output is lost; keep running. */
    void warnOnce(const char *what);

    std::ofstream out_;
    std::string path_;
    bool include_host_timings_ = true;
    bool warned_ = false;
    std::array<double, kStageCount> stage_ms_{};
    std::size_t rounds_written_ = 0;
};

/**
 * Open the round trace `<dir>/<stem>.jsonl`, creating `dir`; every stem
 * character outside [A-Za-z0-9_-] becomes '-'. Null when `dir` is empty
 * or the file will not open (after the writer's one warning). Callers
 * pass obs::tracing::outputDir(), so round traces land next to the
 * journal and metrics.prom.
 */
std::unique_ptr<JsonlTraceWriter> openRoundTrace(const std::string &dir,
                                                 const std::string &stem);

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_TRACE_WRITER_H_
