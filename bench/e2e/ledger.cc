#include "ledger.h"

#include <algorithm>

namespace fedgpo {
namespace e2e {

namespace {

constexpr const char *kStages[] = {"select",    "train",     "encode",
                                   "cost",      "recover",   "straggler",
                                   "aggregate", "energy",    "evaluate"};
constexpr const char *kLayerKinds[] = {"conv", "dense", "recurrent",
                                       "act",  "pool",  "reshape"};
constexpr const char *kKernels[] = {"matmul",         "matmul_bias",
                                    "matmul_accum",   "matmul_trans_a",
                                    "matmul_trans_b", "im2col",
                                    "col2im"};
constexpr const char *kDrops[] = {"straggler", "diverged", "offline",
                                  "crashed",   "upload",   "churn",
                                  "stale",     "duplicate"};

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> m;
    auto add = [&m](std::string name, const char *unit, bool higher) {
        m.push_back(MetricDef{std::move(name), unit, higher});
    };
    for (const char *s : kStages)
        add(std::string("fl.round.") + s + "_share", "fraction", false);
    add("fl.round.outside_share", "fraction", false);
    add("fl.round.coverage", "fraction", true);
    add("fl.round.mean_ms", "ms", false);
    add("fl.async.dispatches", "count/round", false);
    add("fl.async.folds", "count/round", true);
    add("fl.async.staleness_mean", "versions", false);
    add("fl.async.staleness_max", "versions", false);
    add("core.decide_share", "fraction", false);
    add("core.feedback_share", "fraction", false);
    add("runtime.cpu_per_wall", "cores", true);
    add("runtime.pool.tasks", "count/round", false);
    add("runtime.pool.busy_ms", "ms", false);
    add("runtime.pool.queue_wait_ms", "ms", false);
    add("runtime.pool.utilization", "fraction", true);
    add("runtime.speedup_1_to_n", "x", true);
    for (const char *phase : {"forward", "backward"})
        for (const char *k : kLayerKinds)
            add(std::string("nn.") + phase + "." + k + "_share", "fraction",
                false);
    add("nn.update_share", "fraction", false);
    add("nn.total_ms", "ms", false);
    add("nn.self_ms", "ms", false);
    for (const char *k : kKernels)
        add(std::string("tensor.") + k + "_share", "fraction", false);
    for (const char *k : kKernels)
        add(std::string("tensor.") + k + "_calls", "count/round", false);
    add("tensor.total_ms", "ms", false);
    add("comm.bytes_up_per_round", "B/round", false);
    add("comm.bytes_down_per_round", "B/round", false);
    add("comm.compression_ratio", "x", true);
    add("fleet.peak_resident", "clients", false);
    add("fleet.resident_bytes", "B", false);
    add("fleet.evictions_per_round", "count/round", false);
    add("device.t_comp_s", "model_s", false);
    add("device.t_comm_s", "model_s", false);
    add("device.round_time_s", "model_s", false);
    for (const char *e : {"comp", "comm", "wait", "idle"})
        add(std::string("device.e_") + e + "_kj", "kJ/round", false);
    add("modeled.time_to_target_s", "model_s", false);
    add("modeled.energy_to_target_kj", "kJ", false);
    add("modeled.rounds_to_target", "rounds", false);
    add("modeled.final_accuracy", "fraction", true);
    add("modeled.target_reached", "fraction", true);
    for (const char *d : kDrops)
        add(std::string("fault.dropped.") + d, "count/round", false);
    add("fault.upload_retries", "count/round", false);
    add("fault.rounds_aborted", "count", false);
    add("obs.trace_events_per_round", "count/round", false);
    add("obs.trace_dropped", "count", false);
    add("obs.layers_overhead_pct", "%", false);
    add("host.speed", "x", true);
    return m;
}

double
sum(const std::vector<CampaignRecord> &records, const std::string &key)
{
    double total = 0.0;
    for (const CampaignRecord &r : records)
        total += r.at(key);
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Median and quartiles of per-campaign values. */
MetricValue
spread(const std::vector<double> &values)
{
    MetricValue v;
    v.value = quantile(values, 0.5);
    v.q1 = quantile(values, 0.25);
    v.q3 = quantile(values, 0.75);
    v.n = values.size();
    return v;
}

/** A single ledger number (no per-campaign spread). */
MetricValue
single(double value, std::size_t n)
{
    MetricValue v;
    v.value = v.q1 = v.q3 = value;
    v.n = n;
    return v;
}

template <typename F>
std::vector<double>
perCampaign(const std::vector<CampaignRecord> &records, F f)
{
    std::vector<double> out;
    for (const CampaignRecord &r : records)
        out.push_back(f(r));
    return out;
}

/** Host ms of every round of every record. */
std::vector<double>
pooledRoundMs(const std::vector<CampaignRecord> &records)
{
    std::vector<double> all;
    for (const CampaignRecord &r : records)
        all.insert(all.end(), r.round_ms.begin(), r.round_ms.end());
    return all;
}

/**
 * The records with their host times at the reference host's speed: a
 * host running at speed f takes 1/f of the reference time.
 */
std::vector<CampaignRecord>
atReferenceSpeed(std::vector<CampaignRecord> records)
{
    for (CampaignRecord &r : records) {
        r.tally["setup_s"] *= r.speed;
        r.tally["rounds_s"] *= r.speed;
        for (double &ms : r.round_ms)
            ms *= r.speed;
    }
    return records;
}

} // namespace

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m = {
        {"campaign_s", "s", false},
        {"setup_s", "s", false},
        {"round_ms.p50", "ms", false},
        {"round_ms.p80", "ms", false},
        {"train_samples_per_s", "samples/s", true},
        {"dispatches_per_s", "1/s", true},
        {"peak_rss_mb", "MB", false},
        {"dispatch_fold_frac", "fraction", true},
    };
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = buildPerLayer();
    return m;
}

const std::vector<ModeledBound> &
modeledBounds()
{
    static const std::vector<ModeledBound> m = {
        {"modeled.time_to_target_s", 0.10, false},
        {"modeled.energy_to_target_kj", 0.10, false},
        {"modeled.final_accuracy", 0.01, true},
    };
    return m;
}

std::map<std::string, MetricValue>
endToEnd(const WorkloadRun &run)
{
    const std::vector<CampaignRecord> t = atReferenceSpeed(run.timed);
    std::map<std::string, MetricValue> m;
    m["campaign_s"] = spread(perCampaign(t, [](const CampaignRecord &r) {
        return r.at("setup_s") + r.at("rounds_s");
    }));
    m["setup_s"] = spread(perCampaign(
        t, [](const CampaignRecord &r) { return r.at("setup_s"); }));
    // A timed campaign is too short for its own tail, so the percentiles
    // are taken over the pooled rounds; the quartiles are still those of
    // the campaigns' own percentiles. The tail is the 80th percentile:
    // on mobilenet-noniid-topk about one round in eight trains a client
    // with a large non-IID shard and takes twice as long, so the 90th
    // percentile sits on that step (ten runs spread it by 25%), and a few
    // rounds slowed by a burst on the host threw the mean of the slowest
    // tenth of fleet1m-sync-traced's rounds by 45%.
    for (const auto &[name, q] :
         {std::pair<const char *, double>{"round_ms.p50", 0.5},
          {"round_ms.p80", 0.8}}) {
        m[name] = spread(perCampaign(t, [q = q](const CampaignRecord &r) {
            return quantile(r.round_ms, q);
        }));
        m[name].value = quantile(pooledRoundMs(t), q);
    }
    // Rates and the folded share pool the work of every campaign: a
    // campaign's own rate leans on its fleet (over 90
    // mobilenet-noniid-topk fleets, the median of per-campaign dispatch
    // rates spread twice as wide from run to run as the pooled rate).
    for (const auto &[name, key] :
         {std::pair<const char *, const char *>{"train_samples_per_s",
                                                "train_samples"},
          {"dispatches_per_s", "dispatches"}}) {
        m[name] = spread(perCampaign(t, [key = key](const CampaignRecord &r) {
            return ratio(r.at(key), r.at("rounds_s"));
        }));
        m[name].value = ratio(sum(t, key), sum(t, "rounds_s"));
    }
    m["peak_rss_mb"] = spread(perCampaign(
        t, [](const CampaignRecord &r) { return r.at("peak_rss_mb"); }));
    // Useful outcomes over attempts. Not the failed share: about 0.1 of
    // cnn-fedgpo-sync's dispatches fail, a count small enough that its
    // relative spread over ten run seeds reached 18%, against 1.7% for
    // the folded share.
    m["dispatch_fold_frac"] =
        spread(perCampaign(t, [](const CampaignRecord &r) {
            return ratio(r.at("folds"), r.at("dispatches"));
        }));
    m["dispatch_fold_frac"].value =
        ratio(sum(t, "folds"), sum(t, "dispatches"));
    return m;
}

std::map<std::string, MetricValue>
modeled(const WorkloadRun &run)
{
    // Targets, from the convergence campaign; 0 when it missed.
    const std::size_t nc = run.converge.size();
    const double reached = sum(run.converge, "target_reached");
    auto converged = [&](const char *key) {
        return reached > 0.0 ? sum(run.converge, key) : 0.0;
    };
    std::map<std::string, MetricValue> m;
    m["modeled.time_to_target_s"] = single(converged("time_to_target_s"), nc);
    m["modeled.energy_to_target_kj"] =
        single(converged("energy_to_target_j") / 1e3, nc);
    m["modeled.rounds_to_target"] = single(converged("rounds_to_target"), nc);
    m["modeled.target_reached"] = single(reached, nc);
    m["modeled.final_accuracy"] =
        single(sum(run.converge, "final_accuracy"), nc);
    return m;
}

std::map<std::string, MetricValue>
perLayer(const WorkloadRun &run)
{
    const std::vector<CampaignRecord> &t = run.timed;
    const std::vector<CampaignRecord> &p = run.profiled;
    const std::size_t nt = t.size();
    const std::size_t np = p.size();
    const double rounds_t = sum(t, "rounds");
    const double rounds_p = sum(p, "rounds");
    const double wall_p = sum(p, "rounds_s") * 1e3;
    std::map<std::string, MetricValue> m;
    auto put = [&m](const std::string &name, double value, std::size_t n) {
        m[name] = single(value, n);
    };

    // Round stages (profiled): shares of the round's host wall time.
    double stages = 0.0;
    for (const char *s : kStages) {
        const double ms = sum(p, std::string("stage.") + s + "_ms");
        stages += ms;
        put(std::string("fl.round.") + s + "_share", ratio(ms, wall_p), np);
    }
    // The controller's decision runs inside the Select stage; only its
    // feedback runs between stages.
    const double feedback = sum(p, "core.feedback_ms");
    put("fl.round.outside_share",
        ratio(wall_p - stages - feedback, wall_p), np);
    put("fl.round.coverage", ratio(stages, wall_p), np);
    put("fl.round.mean_ms", ratio(wall_p, rounds_p), np);

    put("fl.async.dispatches", ratio(sum(t, "dispatches"), rounds_t), nt);
    put("fl.async.folds", ratio(sum(t, "folds"), rounds_t), nt);
    put("fl.async.staleness_mean",
        ratio(sum(t, "staleness_sum"), sum(t, "folds")), nt);
    double staleness_max = 0.0;
    for (const CampaignRecord &r : t)
        staleness_max = std::max(staleness_max, r.at("staleness_max"));
    put("fl.async.staleness_max", staleness_max, nt);

    put("core.decide_share", ratio(sum(p, "core.decide_ms"), wall_p), np);
    put("core.feedback_share", ratio(feedback, wall_p), np);

    put("runtime.cpu_per_wall", ratio(sum(t, "cpu_s"), sum(t, "loop_s")),
        nt);
    put("runtime.pool.tasks", ratio(sum(p, "pool.tasks"), rounds_p), np);
    put("runtime.pool.busy_ms", ratio(sum(p, "pool.busy_ms"), rounds_p), np);
    put("runtime.pool.queue_wait_ms",
        ratio(sum(p, "pool.wait_ms"), rounds_p), np);
    put("runtime.pool.utilization",
        ratio(sum(p, "pool.busy_ms"),
              wall_p * static_cast<double>(benchThreads())),
        np);
    // 1-thread replay vs the same rounds of the convergence campaign.
    double one_thread = 0.0, n_threads = 0.0;
    if (!run.replay.empty() && !run.converge.empty()) {
        const std::vector<double> &replay = run.replay.front().round_ms;
        const std::vector<double> &timed = run.converge.front().round_ms;
        for (std::size_t i = 0; i < replay.size() && i < timed.size(); ++i) {
            one_thread += replay[i];
            n_threads += timed[i];
        }
    }
    put("runtime.speedup_1_to_n", ratio(one_thread, n_threads), 1);

    // Layers and kernels: host ms summed over workers.
    double nn = 0.0;
    for (const char *phase : {"forward", "backward"})
        for (const char *k : kLayerKinds)
            nn += sum(p, std::string("nn.") + phase + "." + k + "_ms");
    nn += sum(p, "nn.update_ms");
    for (const char *phase : {"forward", "backward"})
        for (const char *k : kLayerKinds)
            put(std::string("nn.") + phase + "." + k + "_share",
                ratio(sum(p, std::string("nn.") + phase + "." + k + "_ms"),
                      nn),
                np);
    put("nn.update_share", ratio(sum(p, "nn.update_ms"), nn), np);
    double kernels = 0.0;
    for (const char *k : kKernels)
        kernels += sum(p, std::string("tensor.") + k + "_ms");
    put("nn.total_ms", ratio(nn, rounds_p), np);
    put("nn.self_ms", ratio(nn - kernels, rounds_p), np);
    for (const char *k : kKernels)
        put(std::string("tensor.") + k + "_share",
            ratio(sum(p, std::string("tensor.") + k + "_ms"), kernels), np);
    for (const char *k : kKernels)
        put(std::string("tensor.") + k + "_calls",
            ratio(sum(p, std::string("tensor.") + k + "_calls"), rounds_p),
            np);
    put("tensor.total_ms", ratio(kernels, rounds_p), np);

    put("comm.bytes_up_per_round", ratio(sum(t, "bytes_up"), rounds_t), nt);
    put("comm.bytes_down_per_round", ratio(sum(t, "bytes_down"), rounds_t),
        nt);
    put("comm.compression_ratio",
        ratio(sum(t, "bytes_raw_up"), sum(t, "bytes_up")), nt);

    double peak = 0.0;
    for (const CampaignRecord &r : t)
        peak = std::max(peak, r.at("fleet.peak_resident"));
    put("fleet.peak_resident", peak, nt);
    put("fleet.resident_bytes",
        quantile(perCampaign(t,
                             [](const CampaignRecord &r) {
                                 return r.at("fleet.resident_bytes");
                             }),
                 0.5),
        nt);
    put("fleet.evictions_per_round",
        ratio(sum(p, "fleet.evictions"), rounds_p), np);

    // Modeled clock: mean per-participant compute/communication time and
    // per-round energy split (Eqs. 2-6).
    const double reports = sum(t, "dev.reports");
    put("device.t_comp_s", ratio(sum(t, "dev.t_comp_s"), reports), nt);
    put("device.t_comm_s", ratio(sum(t, "dev.t_comm_s"), reports), nt);
    put("device.round_time_s", ratio(sum(t, "dev.round_time_s"), rounds_t),
        nt);
    for (const char *e : {"comp", "comm", "wait", "idle"})
        put(std::string("device.e_") + e + "_kj",
            ratio(sum(t, std::string("dev.e_") + e + "_j") / 1e3, rounds_t),
            nt);

    m.merge(modeled(run));

    for (const char *d : kDrops)
        put(std::string("fault.dropped.") + d,
            ratio(sum(t, std::string("drop.") + d), rounds_t), nt);
    put("fault.upload_retries", ratio(sum(t, "upload_retries"), rounds_t),
        nt);
    put("fault.rounds_aborted",
        ratio(sum(t, "aborted"), static_cast<double>(nt)), nt);

    put("obs.trace_events_per_round",
        ratio(sum(t, "trace.recorded"), rounds_t), nt);
    put("obs.trace_dropped", sum(t, "trace.dropped"), nt);
    put("obs.layers_overhead_pct",
        (ratio(quantile(pooledRoundMs(p), 0.5),
               quantile(pooledRoundMs(t), 0.5)) -
         1.0) * 100.0,
        np);
    put("host.speed",
        quantile(perCampaign(t,
                             [](const CampaignRecord &r) { return r.speed; }),
                 0.5),
        nt);
    return m;
}

} // namespace e2e
} // namespace fedgpo
