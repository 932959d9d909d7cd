#include "fl/round/trace_writer.h"

#include <cctype>
#include <filesystem>

#include "comm/codec.h"
#include "obs/decision.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace round {

// Non-finite values become null, which util::json reads back as 0.0 via
// asNumber(), so summarize/diff keep working on a diverged round.
using util::jsonNumber;

namespace {

std::string
clientJson(const RoundContext &ctx, const ClientRoundReport &report)
{
    std::string r = "{\"id\":" + std::to_string(report.client_id);
    r += ",\"tier\":\"" + device::categoryName(report.category) + "\"";
    r += ",\"batch\":" + std::to_string(report.params.batch);
    r += ",\"epochs\":" + std::to_string(report.params.epochs);
    r += ",\"samples\":" + std::to_string(report.samples);
    r += ",\"train_loss\":" + jsonNumber(report.train_loss);
    r += ",\"t_round\":" + jsonNumber(report.cost.t_round);
    r += ",\"e_total\":" + jsonNumber(report.cost.e_total);
    r += ",\"e_wait\":" + jsonNumber(report.cost.e_wait);
    r += ",\"dropped\":" +
         std::string(report.dropped ? "true" : "false");
    r += ",\"reason\":\"" +
         std::string(dropReasonName(report.drop_reason)) + "\"";
    r += ",\"update_scale\":" + jsonNumber(report.update_scale);
    r += ",\"retries\":" + std::to_string(report.upload_retries);
    // Traffic accounting (integers — util::json reads them back exactly
    // through asInt64). compression_ratio is uncompressed-payload bytes
    // over the bytes actually sent up, 0 when nothing was uploaded.
    r += ",\"bytes_up\":" + std::to_string(report.bytes_up);
    r += ",\"bytes_down\":" + std::to_string(report.bytes_down);
    r += ",\"codec\":\"" +
         std::string(comm::codecName(ctx.codec ? ctx.codec->kind()
                                               : comm::Codec::Identity)) +
         "\"";
    // Retransmissions inflate both sides the same way, so the ratio
    // stays the codec's, not the fault model's.
    const double ratio =
        report.bytes_up > 0
            ? static_cast<double>(ctx.param_bytes) *
                  static_cast<double>(1 + report.upload_retries) /
                  static_cast<double>(report.bytes_up)
            : 0.0;
    r += ",\"compression_ratio\":" + jsonNumber(ratio);
    // Virtual-clock arrival annotation (-1: the update never arrives).
    r += ",\"arrival_ts\":" + jsonNumber(report.arrival_ts);
    r += ",\"arrival_rank\":" + std::to_string(report.arrival_rank);
    // Event-protocol annotations (-1 in Sync mode): dispatch and fold
    // instants plus the staleness τ at arrival. rejected_reason repeats
    // the drop reason for rejected *deliveries* only (stale/duplicate/
    // churned), the async fault taxonomy consumers filter on.
    r += ",\"dispatch_ts\":" + jsonNumber(report.dispatch_ts);
    r += ",\"applied_ts\":" + jsonNumber(report.applied_ts);
    r += ",\"staleness\":" + std::to_string(report.staleness);
    const bool rejected_delivery =
        report.drop_reason == DropReason::Stale ||
        report.drop_reason == DropReason::Duplicate ||
        report.drop_reason == DropReason::Churned;
    r += ",\"rejected_reason\":\"" +
         std::string(rejected_delivery
                         ? dropReasonName(report.drop_reason)
                         : "none") +
         "\"";
    r += "}";
    return r;
}

std::string
faultJson(const FaultEvent &event)
{
    std::string r = "{\"id\":" + std::to_string(event.client_id);
    r += ",\"kind\":\"" + std::string(fault::faultKindName(event.kind)) +
         "\"";
    r += ",\"attempt\":" + std::to_string(event.attempt);
    r += ",\"backoff\":" + jsonNumber(event.backoff_s);
    r += ",\"fraction\":" + jsonNumber(event.fraction);
    r += "}";
    return r;
}

} // namespace

JsonlTraceWriter::JsonlTraceWriter(const std::string &path,
                                   bool include_host_timings)
    : out_(path, std::ios::trunc), path_(path),
      include_host_timings_(include_host_timings)
{
    if (!out_.good())
        warnOnce("could not open trace file");
}

void
JsonlTraceWriter::warnOnce(const char *what)
{
    if (warned_)
        return;
    warned_ = true;
    util::logWarn("JsonlTraceWriter: " + std::string(what) + " '" + path_ +
                  "'; trace output will be incomplete");
}

void
JsonlTraceWriter::onStage(const RoundContext &ctx, Stage stage,
                          double wall_ms)
{
    (void)ctx;
    stage_ms_[static_cast<std::size_t>(stage)] = wall_ms;
}

void
JsonlTraceWriter::onRoundEnd(const RoundContext &ctx)
{
    const RoundResult &result = ctx.result;
    const AggregationStats &stats = ctx.aggregation;
    out_ << "{\"round\":" << result.round;
    if (include_host_timings_) {
        out_ << ",\"stages_ms\":{";
        for (std::size_t s = 0; s < kStageCount; ++s) {
            if (s > 0)
                out_ << ",";
            out_ << "\"" << stageName(static_cast<Stage>(s))
                 << "\":" << jsonNumber(stage_ms_[s]);
        }
        out_ << "}";
    }
    out_ << ",\"aggregation\":{\"contributors\":" << stats.contributors
         << ",\"samples\":" << stats.samples
         << ",\"scaled\":" << stats.scaled << "}";
    out_ << ",\"round_time\":" << jsonNumber(result.round_time);
    out_ << ",\"ts_start\":" << jsonNumber(result.ts_start);
    out_ << ",\"ts_end\":" << jsonNumber(result.ts_end);
    out_ << ",\"test_accuracy\":" << jsonNumber(result.test_accuracy);
    out_ << ",\"test_loss\":" << jsonNumber(result.test_loss);
    out_ << ",\"train_loss\":" << jsonNumber(result.train_loss);
    out_ << ",\"energy_participants\":"
         << jsonNumber(result.energy_participants);
    out_ << ",\"energy_idle\":" << jsonNumber(result.energy_idle);
    out_ << ",\"energy_total\":" << jsonNumber(result.energy_total);
    out_ << ",\"dropped_straggler\":" << result.dropped_straggler;
    out_ << ",\"dropped_diverged\":" << result.dropped_diverged;
    out_ << ",\"dropped_offline\":" << result.dropped_offline;
    out_ << ",\"dropped_crashed\":" << result.dropped_crashed;
    out_ << ",\"dropped_upload\":" << result.dropped_upload;
    out_ << ",\"dropped_churn\":" << result.dropped_churn;
    out_ << ",\"dropped_stale\":" << result.dropped_stale;
    out_ << ",\"dropped_duplicate\":" << result.dropped_duplicate;
    out_ << ",\"upload_retries\":" << result.upload_retries;
    out_ << ",\"protocol\":\"" << protocolModeName(result.protocol)
         << "\"";
    out_ << ",\"model_version\":" << result.model_version;
    out_ << ",\"staleness_mean\":" << jsonNumber(result.staleness_mean);
    out_ << ",\"staleness_max\":" << result.staleness_max;
    out_ << ",\"codec\":\"" << comm::codecName(result.codec) << "\"";
    out_ << ",\"bytes_up_total\":" << result.bytes_up_total;
    out_ << ",\"bytes_down_total\":" << result.bytes_down_total;
    out_ << ",\"aborted\":" << (result.aborted ? "true" : "false");
    out_ << ",\"faults\":[";
    for (std::size_t i = 0; i < ctx.fault_events.size(); ++i)
        out_ << (i > 0 ? "," : "") << faultJson(ctx.fault_events[i]);
    out_ << "]";
    out_ << ",\"clients\":[";
    for (std::size_t i = 0; i < result.participants.size(); ++i)
        out_ << (i > 0 ? "," : "") << clientJson(ctx, result.participants[i]);
    out_ << "]";
    if (ctx.decision != nullptr)
        out_ << ",\"decision\":" << obs::decisionJson(*ctx.decision);
    if (include_host_timings_ && obs::enabled())
        out_ << ",\"metrics\":" << obs::metricsJson();
    out_ << "}\n";
    out_.flush();
    if (!out_.good())
        warnOnce("write failed on trace file");
    ++rounds_written_;
    stage_ms_.fill(0.0);
}

std::unique_ptr<JsonlTraceWriter>
openRoundTrace(const std::string &dir, const std::string &stem)
{
    if (dir.empty())
        return nullptr;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string name = stem;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
            c = '-';
    auto writer =
        std::make_unique<JsonlTraceWriter>(dir + "/" + name + ".jsonl");
    return writer->ok() ? std::move(writer) : nullptr;
}

} // namespace round
} // namespace fl
} // namespace fedgpo
