/**
 * @file
 * The per-dispatch step: every operation one server->client->server
 * exchange goes through, shared by both schedulers so each exists once.
 *
 *   train              local SGD on a worker's scratch model
 *   encode             codec round trip of the update delta
 *   cost               modeled time/energy/traffic report (Eqs. 2-3)
 *   chargePartialWork  proration of a crashed/churned dispatch
 *   chargeRetries      upload retries with capped exponential backoff
 *   finiteUpdate       the divergence check before any fold
 *   idleEnergy         Eq. 4 over the devices a round left idle
 *   traceEvent         one causal trace record of a dispatch
 *
 * FlSimulator's round stages are loops over these in cohort-slot order
 * (trace id: round, slot, client); async::EventPump calls them per
 * dispatch at commit and join (trace id: creation epoch, dispatch seq,
 * client).
 * Neither scheduler keeps a private copy, so sync and async rounds
 * charge the local and global energy terms of the Eq. 1 reward the same
 * way.
 */

#ifndef FEDGPO_FL_ROUND_DISPATCH_H_
#define FEDGPO_FL_ROUND_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "fault/fault_model.h"
#include "fl/round/round_context.h"
#include "obs/tracing/trace.h"

namespace fedgpo {
namespace fl {
namespace round {

/** Everything one local-training task reads; built on the scheduler. */
struct TrainJob
{
    const fleet::Client *client = nullptr;
    const data::Dataset *train_set = nullptr;
    runtime::WorkerContextPool *workers = nullptr;
    const std::vector<float> *globals = nullptr; //!< weights trained from
    PerDeviceParams params;
    double lr = 0.0;
    /** Completed-work fraction: < 1 for a crashing or churning device. */
    double work_fraction = 1.0;
    util::Rng rng; //!< the dispatch's pre-split training stream
    std::int32_t trace_round = -1;  //!< trace id: round / creation epoch
    std::uint64_t trace_dispatch = 0; //!< trace id: slot / dispatch seq
};

/**
 * Train one dispatch on `worker`'s scratch model (loaded from
 * job.globals) and record its Train trace event. Touches only the job,
 * the worker's slot and the read-only client and dataset, so it may run
 * on any pool worker.
 */
fleet::Client::UpdateResult train(TrainJob &job, std::size_t worker);

/**
 * Send one trained update through `codec`: encode w - base against the
 * client's error-feedback `residual`, decode, and leave
 * w = base + decode(encode(w - base)), what the server receives.
 * util::fatal when the payload differs from codec.payloadBytes(n), the
 * size both schedulers cost the upload at before encoding.
 */
void encode(const comm::UpdateCodec &codec, const std::vector<float> &base,
            std::vector<float> &w, std::vector<float> &residual,
            util::Rng &rng);

/**
 * Model one dispatch's round cost (Eqs. 2-3) on `client` under `params`
 * and return its report: identity, network/interference state, traffic
 * and cost. An upload of 0 bytes is costed at the uncompressed payload.
 */
ClientRoundReport cost(const RoundContext &ctx, const fleet::Client &client,
                       const PerDeviceParams &params, std::uint64_t bytes_up,
                       std::uint64_t bytes_down);

/**
 * Prorate a report whose device stopped after `fraction` of its local
 * work (a sync crash or an async churn): charge the completed compute
 * and the download leg, drop the upload, and mark the report dropped
 * for `reason` with update_scale = fraction.
 */
void chargePartialWork(ClientRoundReport &report, double fraction,
                       DropReason reason);

/** Outcome of charging one report's upload retries. */
struct RetryCharge
{
    int retries = 0;        //!< retransmissions performed
    bool exhausted = false; //!< final attempt failed; update lost
};

/**
 * Charge `failures` consecutive failed upload attempts into one report.
 * Attempt 1's airtime is already in the modeled cost; each retry adds a
 * capped exponential backoff plus one retransmission of `payload` at the
 * report's network state (time and energy into p.cost, bytes into
 * p.bytes_up), up to config.max_upload_retries. When failures exceed
 * the budget the report is dropped (DropReason::UploadFailed); its
 * energy stays charged, since the radio really burned it. Appends the
 * UploadRetry/UploadExhausted events in order; the caller owns the
 * RoundResult counters.
 */
RetryCharge chargeRetries(const fault::FaultConfig &config,
                          ClientRoundReport &p, int failures,
                          std::uint64_t payload,
                          const device::WorkloadCost &cost_const,
                          std::vector<FaultEvent> &events);

/** False when any weight is NaN or infinite (a diverged client). */
bool finiteUpdate(const std::vector<float> &w);

/**
 * `acc` after `n` sequential `acc += c`, bit for bit, in O(binades
 * crossed) adds. For finite acc >= 0 and c >= 0; a non-finite sum is
 * returned as soon as it appears, since further adds keep it.
 *
 * Inside one binade every add after the first moves acc by the same
 * multiple d of the ulp: a sum that does not tie rounds by c's sub-ulp
 * part alone, and a tie rounds to even once and then stays even. So once
 * three values in a row share a binade, d is the last difference and the
 * run jumps by k * d (exact: a multiple of the ulp inside the binade)
 * while acc stays at or below the binade's largest value; single adds
 * carry acc across each boundary.
 */
double addRepeated(double acc, double c, std::uint64_t n);

/**
 * Eq. 4 idle energy over `round_time` of every device in [0, fleet) not
 * listed in `sorted_ids`, added in ascending id order. A device's idle
 * draw depends only on its tier, and tiers occupy contiguous id ranges
 * (device::categoryAt), so each run of idle ids inside one tier goes
 * through one addRepeated: O(participants x binades) adds, no client
 * materialized. util::fatal unless `sorted_ids` is strictly ascending and
 * below `fleet`.
 */
double idleEnergy(std::size_t fleet, double round_time,
                  const std::vector<std::size_t> &sorted_ids);

/**
 * Record one causal trace event of a dispatch. Self-gating: a single
 * relaxed mode load when tracing is off.
 */
void traceEvent(obs::tracing::EventKind kind, std::int32_t round,
                std::uint64_t dispatch, std::size_t client, double vt,
                obs::tracing::Reason reason = obs::tracing::Reason::None,
                std::int64_t aux = -1, double value = 0.0,
                std::uint64_t bytes = 0);

} // namespace round
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ROUND_DISPATCH_H_
