#include "fault/fault_model.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"
#include "util/rng.h"

namespace fedgpo {
namespace fault {

namespace {

void
checkRate(double rate, const char *name)
{
    if (!(rate >= 0.0 && rate <= 1.0)) {
        util::fatal("FaultConfig: " + std::string(name) +
                    " must be in [0, 1], got " + std::to_string(rate));
    }
}

} // namespace

void
FaultConfig::validate() const
{
    checkRate(offline_rate, "offline_rate");
    checkRate(crash_rate, "crash_rate");
    checkRate(upload_failure_rate, "upload_failure_rate");
    checkRate(quorum_fraction, "quorum_fraction");
    checkRate(churn_rate, "churn_rate");
    checkRate(duplicate_rate, "duplicate_rate");
    // An infinite delay or backoff would push a modeled arrival, and
    // with it the round time, to inf and then NaN.
    if (!(reconnect_delay_s >= 0.0 && std::isfinite(reconnect_delay_s)))
        util::fatal("FaultConfig: reconnect_delay_s must be finite and "
                    ">= 0, got " +
                    std::to_string(reconnect_delay_s));
    if (max_upload_retries < 0)
        util::fatal("FaultConfig: max_upload_retries must be >= 0, got " +
                    std::to_string(max_upload_retries));
    if (!(backoff_base_s >= 0.0 && std::isfinite(backoff_base_s) &&
          backoff_cap_s >= 0.0 && std::isfinite(backoff_cap_s)))
        util::fatal("FaultConfig: backoff times must be finite and >= 0");
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Offline:
        return "offline";
      case FaultKind::Crash:
        return "crash";
      case FaultKind::UploadRetry:
        return "upload_retry";
      case FaultKind::UploadExhausted:
        return "upload_exhausted";
      case FaultKind::Churn:
        return "churn";
      case FaultKind::Duplicate:
        return "duplicate";
      case FaultKind::Stale:
        return "stale";
    }
    return "unknown";
}

FaultModel::FaultModel(const FaultConfig &config, std::uint64_t seed)
    : config_(config), seed_(seed)
{
    config_.validate();
}

FaultDraw
FaultModel::draw(int round, std::size_t client_id) const
{
    // Fresh chain Rng(seed') -> split(round) -> split(client): the
    // stream is a pure function of (seed, round, client), mirroring
    // FlSimulator::trainRng, so fault outcomes never depend on thread
    // count or on draws consumed by any other subsystem. The xor
    // constant keeps the root distinct from the training-stream root.
    util::Rng root(seed_ ^ 0x4641554c54ULL); // "FAULT"
    util::Rng round_stream = root.split(static_cast<std::uint64_t>(round));
    util::Rng rng = round_stream.split(client_id);

    // Fixed draw order within the stream: offline, crash, crash point,
    // upload attempts. Later draws are consumed even when an earlier
    // event makes them moot, so enabling one fault process never
    // re-randomizes another.
    FaultDraw out;
    out.offline = rng.bernoulli(config_.offline_rate);
    out.crash = rng.bernoulli(config_.crash_rate);
    // Crash point: never at the very start (some work always completed
    // before the crash is observable) nor the very end.
    out.crash_fraction = rng.uniform(0.05, 0.95);
    if (config_.upload_failure_rate > 0.0) {
        // Count consecutive failed attempts; bounded by the retry
        // budget plus one so the draw terminates even at rate 1.
        const int attempts = config_.max_upload_retries + 1;
        while (out.upload_failures < attempts &&
               rng.bernoulli(config_.upload_failure_rate)) {
            ++out.upload_failures;
        }
    }
    return out;
}

AsyncFaultDraw
FaultModel::drawDispatch(std::uint64_t dispatch_seq,
                         std::size_t client_id) const
{
    // Same discipline as draw(), keyed by the global dispatch sequence
    // number instead of the round and rooted at its own constant so the
    // dispatch-keyed streams never collide with the per-round ones.
    util::Rng root(seed_ ^ 0x434855524eULL); // "CHURN"
    util::Rng dispatch_stream = root.split(dispatch_seq);
    util::Rng rng = dispatch_stream.split(client_id);

    // Fixed draw order: offline, upload attempts, churn, churn point,
    // reconnect scale, duplicate, duplicate lag. Every draw is consumed
    // regardless of earlier outcomes so enabling one process never
    // re-randomizes another.
    AsyncFaultDraw out;
    out.offline = rng.bernoulli(config_.offline_rate);
    if (config_.upload_failure_rate > 0.0) {
        const int attempts = config_.max_upload_retries + 1;
        while (out.upload_failures < attempts &&
               rng.bernoulli(config_.upload_failure_rate)) {
            ++out.upload_failures;
        }
    }
    out.churn = rng.bernoulli(config_.churn_rate);
    out.churn_fraction = rng.uniform(0.05, 0.95);
    out.reconnect_scale = rng.uniform(0.5, 1.5);
    out.duplicate = rng.bernoulli(config_.duplicate_rate);
    // Lag of the spurious second delivery, as a fraction of the
    // dispatch's own round time; strictly positive so the duplicate
    // always sorts after the real arrival.
    out.duplicate_lag = rng.uniform(0.1, 1.0);
    return out;
}

double
FaultModel::backoff(const FaultConfig &config, int retry)
{
    double interval = config.backoff_base_s;
    for (int i = 0; i < retry; ++i) {
        interval *= 2.0;
        if (interval >= config.backoff_cap_s)
            break;
    }
    return std::min(interval, config.backoff_cap_s);
}

} // namespace fault
} // namespace fedgpo
