#include "campaign.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/fedgpo.h"
#include "json_text.h"
#include "obs/tracing/trace.h"
#include "tensor/kernel_mode.h"
#include "util/json.h"

namespace fedgpo {
namespace e2e {

namespace trc = obs::tracing;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Adds the lifetime of the scope, in host ms, to a running total. */
class Stopwatch
{
  public:
    explicit Stopwatch(double &total_ms) : total_(total_ms) {}
    ~Stopwatch() { total_ += msSince(t0_); }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    double &total_;
    Clock::time_point t0_ = Clock::now();
};

/**
 * Forwards every call to the wrapped policy and times the controller's
 * two phases: the decision (chooseClients + assign + chooseCodec) and
 * the feedback. lastDecision() is forwarded too, so the engine sees the
 * same decision records and the campaign behaves identically.
 */
class TimedPolicy : public optim::ParamOptimizer
{
  public:
    explicit TimedPolicy(optim::ParamOptimizer &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    int
    chooseClients(int max_k) override
    {
        Stopwatch s(decide_ms);
        return inner_.chooseClients(max_k);
    }

    std::vector<fl::PerDeviceParams>
    assign(const std::vector<fl::DeviceObservation> &devices,
           const nn::LayerCensus &census) override
    {
        Stopwatch s(decide_ms);
        return inner_.assign(devices, census);
    }

    comm::Codec
    chooseCodec(comm::Codec configured) override
    {
        Stopwatch s(decide_ms);
        return inner_.chooseCodec(configured);
    }

    void
    feedback(const fl::RoundResult &result) override
    {
        Stopwatch s(feedback_ms);
        inner_.feedback(result);
    }

    const obs::DecisionRecord *
    lastDecision() const override
    {
        return inner_.lastDecision();
    }

    double decide_ms = 0.0;
    double feedback_ms = 0.0;

  private:
    optim::ParamOptimizer &inner_;
};

/** Host ms per round stage, from the engine's own stage timer. */
class StageProbe : public fl::round::RoundObserver
{
  public:
    void
    onStage(const fl::round::RoundContext &, fl::round::Stage stage,
            double wall_ms) override
    {
        ms[static_cast<std::size_t>(stage)] += wall_ms;
    }

    double ms[fl::round::kStageCount] = {};
};

/** 64-bit FNV-1a over raw bytes: a bit-exact fingerprint. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Every modeled field of a round result (host timings excluded). */
void
hashRound(Fnv &h, const fl::RoundResult &r)
{
    h.add(r.round);
    for (double v : {r.round_time, r.ts_start, r.ts_end,
                     r.energy_participants, r.energy_idle, r.energy_total,
                     r.test_accuracy, r.test_loss, r.train_loss,
                     r.staleness_mean})
        h.add(v);
    for (std::size_t v :
         {r.dropped_straggler, r.dropped_diverged, r.dropped_offline,
          r.dropped_crashed, r.dropped_upload, r.dropped_churn,
          r.dropped_stale, r.dropped_duplicate, r.upload_retries,
          r.samples_aggregated})
        h.add(v);
    h.add(r.protocol);
    h.add(r.model_version);
    h.add(r.staleness_max);
    h.add(r.codec);
    h.add(r.bytes_up_total);
    h.add(r.bytes_down_total);
    h.add(r.aborted);
    for (const fl::ClientRoundReport &p : r.participants) {
        h.add(p.client_id);
        h.add(p.category);
        h.add(p.params.batch);
        h.add(p.params.epochs);
        for (double v : {p.cost.t_comp, p.cost.t_comm, p.cost.t_comm_down,
                         p.cost.t_comm_up, p.cost.t_round, p.cost.e_comp,
                         p.cost.e_comm, p.cost.e_wait, p.cost.e_total,
                         p.train_loss, p.update_scale, p.arrival_ts,
                         p.dispatch_ts, p.applied_ts})
            h.add(v);
        h.add(p.samples);
        h.add(p.dropped);
        h.add(p.drop_reason);
        h.add(p.upload_retries);
        h.add(p.bytes_up);
        h.add(p.bytes_down);
        h.add(p.arrival_rank);
        h.add(p.staleness);
    }
}

/** The drop counters of a RoundResult, indexed like kDropReasons. */
constexpr fl::DropReason kDropReasons[] = {
    fl::DropReason::Straggler, fl::DropReason::Diverged,
    fl::DropReason::Offline,   fl::DropReason::Crashed,
    fl::DropReason::UploadFailed, fl::DropReason::Churned,
    fl::DropReason::Stale,     fl::DropReason::Duplicate,
};
constexpr const char *kDropNames[] = {"straggler", "diverged", "offline",
                                      "crashed",   "upload",   "churn",
                                      "stale",     "duplicate"};

std::size_t
droppedCounter(const fl::RoundResult &r, std::size_t i)
{
    const std::size_t counters[] = {
        r.dropped_straggler, r.dropped_diverged, r.dropped_offline,
        r.dropped_crashed,   r.dropped_upload,   r.dropped_churn,
        r.dropped_stale,     r.dropped_duplicate};
    return counters[i];
}

/** Collects failed output checks, with the round they failed in. */
class Checks
{
  public:
    void
    fail(int round, const std::string &what)
    {
        if (failures.size() >= 16)
            return;
        failures.push_back(round > 0
                               ? "round " + std::to_string(round) + ": " +
                                     what
                               : what);
    }

    void
    expect(bool ok, int round, const char *what)
    {
        if (!ok)
            fail(round, what);
    }

    /** Conservation and sanity laws every round result must satisfy. */
    void
    round(const fl::RoundResult &r, const fl::RoundResult *prev)
    {
        const int n = r.round;
        std::uint64_t up = 0, down = 0;
        double energy = 0.0;
        std::size_t by_reason[std::size(kDropReasons)] = {};
        for (const fl::ClientRoundReport &p : r.participants) {
            up += p.bytes_up;
            down += p.bytes_down;
            energy += p.cost.e_total;
            if (p.dropped != (p.drop_reason != fl::DropReason::None))
                fail(n, "client " + std::to_string(p.client_id) +
                            " has no single outcome (dropped flag and "
                            "reason disagree)");
            for (std::size_t i = 0; i < std::size(kDropReasons); ++i)
                if (p.drop_reason == kDropReasons[i])
                    ++by_reason[i];
            bool sane = true;
            for (double v : {p.cost.t_comp, p.cost.t_comm, p.cost.t_round,
                             p.cost.e_comp, p.cost.e_comm, p.cost.e_wait,
                             p.cost.e_total})
                sane = sane && std::isfinite(v) && v >= 0.0;
            if (!sane)
                fail(n, "client " + std::to_string(p.client_id) +
                            " has a negative or non-finite modeled cost");
        }
        for (std::size_t i = 0; i < std::size(kDropReasons); ++i)
            if (by_reason[i] != droppedCounter(r, i))
                fail(n, std::string("dropped_") + kDropNames[i] +
                            " does not match the participants' reasons");
        expect(up == r.bytes_up_total, n,
               "per-client bytes_up do not sum to bytes_up_total");
        expect(down == r.bytes_down_total, n,
               "per-client bytes_down do not sum to bytes_down_total");
        expect(close(energy, r.energy_participants), n,
               "per-client energy does not sum to energy_participants");
        expect(close(r.energy_participants + r.energy_idle, r.energy_total),
               n, "energy_participants + energy_idle != energy_total");
        bool sane = true;
        for (double v : {r.round_time, r.ts_start, r.ts_end,
                         r.energy_participants, r.energy_idle,
                         r.energy_total})
            sane = sane && std::isfinite(v) && v >= 0.0;
        expect(sane && r.ts_end >= r.ts_start, n,
               "a modeled time or energy is negative or non-finite");
        expect(r.test_accuracy >= 0.0 && r.test_accuracy <= 1.0, n,
               "test accuracy outside [0, 1]");
        if (prev != nullptr) {
            expect(r.model_version >= prev->model_version, n,
                   "model_version went backwards");
            expect(r.ts_start >= prev->ts_end, n,
                   "round started before the previous one ended");
        }
    }

    std::vector<std::string> failures;

  private:
    static bool
    close(double a, double b)
    {
        return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
    }
};

/**
 * The obs registry's cumulative values under tally names: per-layer
 * spans grouped by kind (model.forward.03_conv -> nn.forward.conv_ms),
 * kernel spans (kernel.im2col -> tensor.im2col_ms / _calls), the pool
 * probes, and the eviction counter.
 */
std::map<std::string, double>
registryTally()
{
    std::map<std::string, double> out;
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &s : snap.spans) {
        if (s.name == "model.update") {
            out["nn.update_ms"] += s.total_ms;
        } else if (s.name.rfind("model.", 0) == 0) {
            // model.<phase>.<NN>_<kind>
            const std::size_t dot = s.name.find('.', 6);
            out["nn." + s.name.substr(6, dot - 6) + "." +
                s.name.substr(s.name.rfind('_') + 1) + "_ms"] += s.total_ms;
        } else if (s.name.rfind("kernel.", 0) == 0) {
            const std::string kernel = "tensor." + s.name.substr(7);
            out[kernel + "_ms"] += s.total_ms;
            out[kernel + "_calls"] += static_cast<double>(s.count);
        }
    }
    for (const auto &[name, h] : snap.histograms) {
        if (name == "pool.task_ms")
            out["pool.busy_ms"] = h.stat.sum();
        else if (name == "pool.queue_wait_ms")
            out["pool.wait_ms"] = h.stat.sum();
    }
    for (const auto &[name, v] : snap.counters) {
        if (name == "pool.tasks" || name == "fleet.evictions")
            out[name] = static_cast<double>(v);
    }
    return out;
}

/**
 * Peak resident set of this process's own address space, in MB. Not
 * getrusage's ru_maxrss: Linux carries the high-water mark of the address
 * space a process replaced at exec into it, and a spawned child starts in
 * its parent's.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Modeled outcome of one round, folded into the record's tallies. */
void
tallyRound(const fl::RoundResult &r, std::uint64_t dispatches,
           std::uint64_t param_bytes, CampaignRecord &rec)
{
    auto &t = rec.tally;
    std::uint64_t folds = 0;
    double samples = 0.0;
    for (const fl::ClientRoundReport &p : r.participants) {
        if (!p.dropped && !r.aborted)
            ++folds;
        // Host training work: a crashed or churned client trained up to
        // its completed fraction (carried in update_scale); offline and
        // duplicate reports trained nothing.
        double work = static_cast<double>(p.samples) *
                      static_cast<double>(p.params.epochs);
        if (p.drop_reason == fl::DropReason::Offline ||
            p.drop_reason == fl::DropReason::Duplicate)
            work = 0.0;
        else if (p.drop_reason == fl::DropReason::Crashed ||
                 p.drop_reason == fl::DropReason::Churned)
            work *= p.update_scale;
        samples += work;

        if (p.cost.t_round > 0.0) {
            t["dev.reports"] += 1.0;
            t["dev.t_comp_s"] += p.cost.t_comp;
            t["dev.t_comm_s"] += p.cost.t_comm;
        }
        t["dev.e_comp_j"] += p.cost.e_comp;
        t["dev.e_comm_j"] += p.cost.e_comm;
        t["dev.e_wait_j"] += p.cost.e_wait;
        if (p.bytes_up > 0)
            t["bytes_raw_up"] += static_cast<double>(
                param_bytes * (1 + static_cast<std::uint64_t>(
                                       p.upload_retries)));
    }
    t["dispatches"] += static_cast<double>(dispatches);
    t["folds"] += static_cast<double>(folds);
    t["train_samples"] += samples;
    t["staleness_sum"] += r.staleness_mean * static_cast<double>(folds);
    t["staleness_max"] =
        std::max(t["staleness_max"], static_cast<double>(r.staleness_max));
    t["bytes_up"] += static_cast<double>(r.bytes_up_total);
    t["bytes_down"] += static_cast<double>(r.bytes_down_total);
    t["dev.round_time_s"] += r.round_time;
    t["dev.e_idle_j"] += r.energy_idle;
    for (std::size_t i = 0; i < std::size(kDropReasons); ++i)
        t[std::string("drop.") + kDropNames[i]] +=
            static_cast<double>(droppedCounter(r, i));
    t["upload_retries"] += static_cast<double>(r.upload_retries);
    t["aborted"] += r.aborted ? 1.0 : 0.0;
    t["modeled_time_s"] += r.round_time;
    t["energy_j"] += r.energy_total;
    t["final_accuracy"] = r.test_accuracy;
}

} // namespace

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Timed:
        return "timed";
      case RunMode::Profiled:
        return "profiled";
      case RunMode::Converge:
        return "converge";
      case RunMode::Replay:
        return "replay";
    }
    return "unknown";
}

bool
parseRunMode(const std::string &name, RunMode &out)
{
    for (RunMode m : {RunMode::Timed, RunMode::Profiled, RunMode::Converge,
                      RunMode::Replay}) {
        if (name == runModeName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

double
CampaignRecord::at(const std::string &key) const
{
    auto it = tally.find(key);
    return it == tally.end() ? 0.0 : it->second;
}

CampaignRecord
runCampaign(const Workload &w, std::uint64_t seed, RunMode mode, int rounds)
{
    const bool profiled = mode == RunMode::Profiled;
    // Process-wide modes are set before anything is built: stage spans,
    // pool probes and per-layer spans resolve against the level once.
    obs::setLevel(profiled ? obs::Level::Profile : w.metrics);
    trc::setMode(w.traced ? trc::Mode::Full : trc::Mode::Off);
    tensor::setFastMath(w.fast_math);

    fl::FlConfig config = w.config;
    config.seed = seed;
    config.threads = mode == RunMode::Replay ? 1 : benchThreads();

    CampaignRecord rec;
    rec.mode = mode;
    rec.seed = seed;
    auto &t = rec.tally;

    const Clock::time_point start = Clock::now();
    fl::FlSimulator sim(config);
    std::unique_ptr<core::FedGpo> fedgpo;
    std::unique_ptr<TimedPolicy> policy;
    if (w.fedgpo) {
        fedgpo = std::make_unique<core::FedGpo>();
        policy = std::make_unique<TimedPolicy>(*fedgpo);
    }
    t["setup_s"] = msSince(start) / 1e3;

    StageProbe stages;
    if (profiled)
        sim.addRoundObserver(&stages);
    const std::uint64_t param_bytes = sim.paramBytes();
    const std::map<std::string, double> registry0 = registryTally();
    const std::uint64_t traced0 = trc::Tracer::instance().recordedEvents();
    const std::uint64_t dropped0 = trc::Tracer::instance().droppedEvents();

    Checks checks;
    Fnv digest;
    fl::RoundResult prev;
    const int digest_rounds = std::min(rounds, kDigestRounds);
    const double cpu0 = cpuSeconds();
    const Clock::time_point loop0 = Clock::now();
    for (int n = 1; n <= rounds; ++n) {
        const fl::async::EventPump *pump = sim.eventPump();
        const std::uint64_t dispatch0 = pump ? pump->dispatchCount() : 0;
        const Clock::time_point t0 = Clock::now();
        fl::RoundResult r = policy ? sim.runRound(*policy)
                                   : sim.runRoundWithParams(w.params);
        rec.round_ms.push_back(msSince(t0));

        checks.round(r, n > 1 ? &prev : nullptr);
        tallyRound(r,
                   pump ? pump->dispatchCount() - dispatch0
                        : r.participants.size(),
                   param_bytes, rec);
        if (t["target_reached"] == 0.0) {
            t["time_to_target_s"] += r.round_time;
            t["energy_to_target_j"] += r.energy_total;
            if (r.test_accuracy >= w.target) {
                t["target_reached"] = 1.0;
                t["rounds_to_target"] = n;
            }
        }
        if (n <= digest_rounds)
            hashRound(digest, r);
        if (n == digest_rounds)
            for (float v : sim.globalModel().saveParams())
                digest.add(v);
        prev = std::move(r);
        if (mode == RunMode::Converge && t["target_reached"] != 0.0 &&
            n >= digest_rounds)
            break;
    }
    // Rates use the rounds' own host time; the benchmark's checks and
    // tallies between rounds only enter the CPU/wall ratio's loop time.
    t["loop_s"] = msSince(loop0) / 1e3;
    t["cpu_s"] = cpuSeconds() - cpu0;
    for (double ms : rec.round_ms)
        t["rounds_s"] += ms / 1e3;
    t["rounds"] = static_cast<double>(rec.round_ms.size());
    rec.digest = digest.hex();

    const trc::Tracer &tracer = trc::Tracer::instance();
    t["trace.recorded"] =
        static_cast<double>(tracer.recordedEvents() - traced0);
    t["trace.dropped"] = static_cast<double>(tracer.droppedEvents() - dropped0);
    checks.expect(w.traced || t["trace.recorded"] == 0.0, 0,
                  "tracing is off but the tracer recorded events");
    t["peak_rss_mb"] = peakRssMb();
    t["fleet.peak_resident"] =
        static_cast<double>(sim.clientStore().peakResident());
    t["fleet.resident_bytes"] =
        static_cast<double>(sim.clientStore().residentBytes());

    if (policy) {
        t["core.decide_ms"] = policy->decide_ms;
        t["core.feedback_ms"] = policy->feedback_ms;
    }
    if (profiled) {
        for (std::size_t s = 0; s < fl::round::kStageCount; ++s)
            t[std::string("stage.") +
              fl::round::stageName(static_cast<fl::round::Stage>(s)) +
              "_ms"] = stages.ms[s];
        for (const auto &[key, value] : registryTally()) {
            auto before = registry0.find(key);
            t[key] = value - (before == registry0.end() ? 0.0
                                                        : before->second);
        }
        double nn_ms = 0.0, tensor_ms = 0.0;
        for (const auto &[key, value] : t) {
            if (key.rfind("nn.", 0) == 0)
                nn_ms += value;
            else if (key.rfind("tensor.", 0) == 0 &&
                     key.compare(key.size() - 3, 3, "_ms") == 0)
                tensor_ms += value;
        }
        checks.expect(tensor_ms <= nn_ms, 0,
                      "kernel time exceeds the layer time that contains it");
    }
    rec.failures = std::move(checks.failures);
    return rec;
}

std::string
toJson(const CampaignRecord &rec)
{
    std::string out = "{\"mode\":" + jstr(runModeName(rec.mode)) +
                      ",\"seed\":" + std::to_string(rec.seed) +
                      ",\"digest\":" + jstr(rec.digest) + ",\"tally\":{";
    const char *sep = "";
    for (const auto &[key, value] : rec.tally) {
        out.append(sep).append(jstr(key)).append(":").append(jnum(value));
        sep = ",";
    }
    out += "},\"round_ms\":[";
    sep = "";
    for (double ms : rec.round_ms) {
        out.append(sep).append(jnum(ms));
        sep = ",";
    }
    out += "],\"failures\":[";
    sep = "";
    for (const std::string &f : rec.failures) {
        out.append(sep).append(jstr(f));
        sep = ",";
    }
    return out + "]}";
}

bool
fromJson(const std::string &text, CampaignRecord &out, std::string &error)
{
    util::JsonValue doc;
    if (!util::JsonValue::parse(text, doc, &error))
        return false;
    if (!doc.isObject() || !doc.at("tally").isObject() ||
        !doc.at("round_ms").isArray() ||
        !parseRunMode(doc.at("mode").asString(), out.mode)) {
        error = "not a campaign record";
        return false;
    }
    out.seed = static_cast<std::uint64_t>(doc.at("seed").asInt64());
    out.digest = doc.at("digest").asString();
    for (const auto &[key, value] : doc.at("tally").members())
        out.tally[key] = value.asNumber();
    for (const util::JsonValue &v : doc.at("round_ms").elements())
        out.round_ms.push_back(v.asNumber());
    for (const util::JsonValue &v : doc.at("failures").elements())
        out.failures.push_back(v.asString());
    return true;
}

} // namespace e2e
} // namespace fedgpo
