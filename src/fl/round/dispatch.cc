#include "fl/round/dispatch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "device/power_model.h"
#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace round {

namespace trc = obs::tracing;

fleet::Client::UpdateResult
train(TrainJob &job, std::size_t worker)
{
    const bool traced = trc::enabled();
    trc::Tracer &tracer = trc::Tracer::instance();
    const std::uint64_t t0 = traced ? tracer.hostNowNs() : 0;
    nn::Model &scratch = *job.workers->acquire(worker).model;
    scratch.loadParams(*job.globals);
    fleet::Client::UpdateResult update = job.client->localTrain(
        scratch, job.rng, *job.train_set, job.params, job.lr,
        job.work_fraction);
    if (traced) {
        trc::TraceEvent e;
        e.kind = trc::EventKind::Train;
        e.round = job.trace_round;
        e.dispatch = job.trace_dispatch;
        e.client = job.client->id();
        e.worker = static_cast<std::int32_t>(worker);
        e.value = job.work_fraction;
        e.dur_ns = tracer.hostNowNs() - t0;
        tracer.record(e);
    }
    return update;
}

void
encode(const comm::UpdateCodec &codec, const std::vector<float> &base,
       std::vector<float> &w, std::vector<float> &residual, util::Rng &rng)
{
    assert(w.size() == base.size());
    std::vector<float> delta(w.size());
    for (std::size_t j = 0; j < w.size(); ++j)
        delta[j] = w[j] - base[j];
    comm::Encoded encoded;
    codec.encode(delta, residual, rng, encoded);
    if (encoded.payload_bytes != codec.payloadBytes(w.size()))
        util::fatal(std::string(comm::codecName(codec.kind())) +
                    " encoded " + std::to_string(encoded.payload_bytes) +
                    " bytes, not payloadBytes(n) = " +
                    std::to_string(codec.payloadBytes(w.size())));
    codec.decode(encoded, delta);
    for (std::size_t j = 0; j < w.size(); ++j)
        w[j] = base[j] + delta[j];
}

ClientRoundReport
cost(const RoundContext &ctx, const fleet::Client &client,
     const PerDeviceParams &params, std::uint64_t bytes_up,
     std::uint64_t bytes_down)
{
    assert(ctx.cost_const != nullptr);
    device::LocalWorkSpec work;
    work.train_flops_per_sample = ctx.train_flops;
    work.samples = client.shardSize();
    work.batch = params.batch;
    work.epochs = params.epochs;
    work.param_bytes = ctx.param_bytes;
    work.upload_bytes = bytes_up;

    ClientRoundReport report;
    report.client_id = client.id();
    report.category = client.category();
    report.params = params;
    report.interference = client.interference();
    report.network = client.network();
    report.samples = client.shardSize();
    report.cost = device::clientRoundCost(
        device::profileFor(client.category()), *ctx.cost_const, work,
        client.interference(), client.network());
    report.bytes_up = bytes_up;
    report.bytes_down = bytes_down;
    return report;
}

void
chargePartialWork(ClientRoundReport &report, double fraction,
                  DropReason reason)
{
    // With an uncompressed upload the download share is exactly 0.5.
    device::RoundCost &c = report.cost;
    const double f_down = c.t_comm > 0.0 ? c.t_comm_down / c.t_comm : 0.0;
    c.t_comp *= fraction;
    c.e_comp *= fraction;
    c.t_comm *= f_down;
    c.e_comm *= f_down;
    c.t_comm_up = 0.0;
    c.t_round = c.t_comp + c.t_comm;
    c.e_total = c.e_comp + c.e_comm;
    report.dropped = true;
    report.drop_reason = reason;
    report.update_scale = fraction;
}

RetryCharge
chargeRetries(const fault::FaultConfig &config, ClientRoundReport &p,
              int failures, std::uint64_t payload,
              const device::WorkloadCost &cost_const,
              std::vector<FaultEvent> &events)
{
    RetryCharge charge;
    if (failures <= 0)
        return charge;
    charge.retries = std::min(failures, config.max_upload_retries);
    const device::TxCost tx = device::uploadCost(
        cost_const, static_cast<std::size_t>(payload), p.network);
    for (int k = 0; k < charge.retries; ++k) {
        const double wait = fault::FaultModel::backoff(config, k);
        p.cost.t_comm += wait + tx.time;
        p.cost.t_round += wait + tx.time;
        p.cost.e_comm += tx.energy;
        p.cost.e_total += tx.energy;
        FaultEvent event;
        event.client_id = p.client_id;
        event.kind = fault::FaultKind::UploadRetry;
        event.attempt = k + 1;
        event.backoff_s = wait;
        events.push_back(event);
    }
    p.upload_retries = charge.retries;
    p.bytes_up += static_cast<std::uint64_t>(charge.retries) * payload;

    if (failures > config.max_upload_retries) {
        charge.exhausted = true;
        p.dropped = true;
        p.drop_reason = DropReason::UploadFailed;
        FaultEvent event;
        event.client_id = p.client_id;
        event.kind = fault::FaultKind::UploadExhausted;
        event.attempt = charge.retries + 1;
        events.push_back(event);
    }
    return charge;
}

bool
finiteUpdate(const std::vector<float> &w)
{
    for (float v : w)
        if (!std::isfinite(v))
            return false;
    return true;
}

double
idleEnergy(std::size_t fleet, double round_time,
           const std::vector<std::size_t> &sorted_ids)
{
    double idle_by_tier[device::kNumCategories];
    for (std::size_t c = 0; c < device::kNumCategories; ++c) {
        device::PowerModel power(
            device::profileFor(static_cast<device::Category>(c)));
        idle_by_tier[c] = power.idleEnergy(round_time);
    }
    const auto tiers = device::tierBoundaries(fleet);
    double energy = 0.0;
    std::size_t next = 0;
    std::size_t tier = 0;
    for (std::size_t id = 0; id < fleet; ++id) {
        while (tier + 1 < device::kNumCategories && id >= tiers[tier + 1])
            ++tier;
        if (next < sorted_ids.size() && sorted_ids[next] == id) {
            ++next;
            continue;
        }
        energy += idle_by_tier[tier];
    }
    return energy;
}

void
traceEvent(trc::EventKind kind, std::int32_t round, std::uint64_t dispatch,
           std::size_t client, double vt, trc::Reason reason,
           std::int64_t aux, double value, std::uint64_t bytes)
{
    if (!trc::enabled())
        return;
    trc::TraceEvent e;
    e.kind = kind;
    e.reason = reason;
    e.round = round;
    e.dispatch = dispatch;
    e.client = client;
    e.virtual_ts = vt;
    e.aux = aux;
    e.value = value;
    e.bytes = bytes;
    trc::Tracer::instance().record(e);
}

} // namespace round
} // namespace fl
} // namespace fedgpo
