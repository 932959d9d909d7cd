#include "fl/round/dispatch.h"

#include <algorithm>
#include <bit>
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

namespace {

/**
 * The biased exponent field of a finite acc >= 0, with zero and the
 * subnormals folded into [2^-1022, 2^-1021): one uniform grid of ulp
 * 2^-1074, so for this walk they form one binade.
 */
std::uint64_t
binadeOf(double acc)
{
    return std::max<std::uint64_t>(std::bit_cast<std::uint64_t>(acc) >> 52,
                                   1);
}

} // namespace

double
addRepeated(double acc, double c, std::uint64_t n)
{
    assert(!(acc < 0.0) && !(c < 0.0));
    int in_binade = 0; // adds in a row that stayed in acc's binade
    while (n > 0) {
        const double before = acc;
        acc += c;
        --n;
        if (!std::isfinite(acc))
            return acc;
        const std::uint64_t binade = binadeOf(acc);
        in_binade = binade == binadeOf(before) ? in_binade + 1 : 0;
        if (in_binade < 2)
            continue;
        // `before` was itself an add's result inside this binade, so a
        // tie has already rounded to even: every later add in the binade
        // moves acc by the same d.
        const double d = acc - before;
        if (d == 0.0)
            return acc;
        const double ulp = std::ldexp(1.0, static_cast<int>(binade) - 1075);
        const double last =
            std::bit_cast<double>((binade << 52) | ((1ULL << 52) - 1));
        const auto room = static_cast<std::uint64_t>((last - acc) / ulp);
        const auto step = static_cast<std::uint64_t>(d / ulp);
        const std::uint64_t k = std::min(n, room / step);
        acc += static_cast<double>(k) * d;
        n -= k;
    }
    return acc;
}

double
idleEnergy(std::size_t fleet, double round_time,
           const std::vector<std::size_t> &sorted_ids)
{
    for (std::size_t i = 0; i < sorted_ids.size(); ++i) {
        if (sorted_ids[i] >= fleet ||
            (i > 0 && sorted_ids[i] <= sorted_ids[i - 1]))
            util::fatal("idleEnergy: cohort ids must be strictly ascending "
                        "and below the fleet of " +
                        std::to_string(fleet) + "; position " +
                        std::to_string(i) + " holds " +
                        std::to_string(sorted_ids[i]));
    }
    double idle_by_tier[device::kNumCategories];
    for (std::size_t c = 0; c < device::kNumCategories; ++c) {
        device::PowerModel power(
            device::profileFor(static_cast<device::Category>(c)));
        idle_by_tier[c] = power.idleEnergy(round_time);
    }
    const auto tiers = device::tierBoundaries(fleet);
    double energy = 0.0;
    std::size_t first = 0; // first id of the current idle run
    for (std::size_t i = 0; i <= sorted_ids.size(); ++i) {
        const std::size_t stop = i < sorted_ids.size() ? sorted_ids[i] : fleet;
        for (std::size_t t = 0; t < device::kNumCategories; ++t) {
            const std::size_t lo = std::max(first, tiers[t]);
            const std::size_t hi = std::min(stop, tiers[t + 1]);
            if (lo < hi)
                energy = addRepeated(energy, idle_by_tier[t], hi - lo);
        }
        first = stop + 1;
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
