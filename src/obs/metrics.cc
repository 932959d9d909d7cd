#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "obs/tracing/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/table.h"

namespace fedgpo {
namespace obs {

namespace {

/** -1 = not yet resolved from the environment. */
std::atomic<int> g_level{-1};

Level
levelFromEnv()
{
    const char *env = std::getenv("FEDGPO_METRICS");
    if (env == nullptr || *env == '\0')
        return Level::Off;
    const std::string v(env);
    if (v == "off")
        return Level::Off;
    if (v == "basic")
        return Level::Basic;
    if (v == "profile")
        return Level::Profile;
    util::logWarn("FEDGPO_METRICS: unrecognized value '" + v +
                  "' (want off|basic|profile); metrics stay off");
    return Level::Off;
}

/**
 * Shortest round-trip-exact double formatting ("%.17g"). Used by the
 * Prometheus text writer, where nan/inf are legal float literals.
 */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Level
level()
{
    int v = g_level.load(std::memory_order_acquire);
    if (v < 0) {
        v = static_cast<int>(levelFromEnv());
        int expected = -1;
        // First resolver wins; a concurrent setLevel() is preserved.
        g_level.compare_exchange_strong(expected, v,
                                        std::memory_order_acq_rel);
        v = g_level.load(std::memory_order_acquire);
    }
    return static_cast<Level>(v);
}

void
setLevel(Level l)
{
    g_level.store(static_cast<int>(l), std::memory_order_release);
}

// --- Histogram. ---------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0)
{
}

void
Histogram::add(double x)
{
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
    std::lock_guard<std::mutex> lock(mutex_);
    stat_.add(x);
    ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot out;
    out.bounds = bounds_;
    std::lock_guard<std::mutex> lock(mutex_);
    out.stat = stat_;
    // Cumulative counts, Prometheus le-style (last bucket = +inf = count).
    out.bucket_counts.resize(buckets_.size());
    std::partial_sum(buckets_.begin(), buckets_.end(),
                     out.bucket_counts.begin());
    return out;
}

// --- Registry. ----------------------------------------------------------

MetricsRegistry::MetricsRegistry() : start_(std::chrono::steady_clock::now())
{
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

Counter *
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    return it->second.get();
}

Gauge *
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    return it->second.get();
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name,
                          std::make_unique<Histogram>(std::move(bounds)))
                 .first;
    }
    return it->second.get();
}

SpanNode *
MetricsRegistry::span(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = spans_.find(path);
    if (it == spans_.end())
        it = spans_.emplace(path, std::make_unique<SpanNode>(path)).first;
    return it->second.get();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        out.counters.emplace_back(name, c->value());
    for (const auto &[name, g] : gauges_)
        out.gauges.emplace_back(name, g->value());
    for (const auto &[name, h] : histograms_)
        out.histograms.emplace_back(name, h->snapshot());
    for (const auto &[name, s] : spans_) {
        MetricsSnapshot::Span span;
        span.name = name;
        span.count = s->count.load(std::memory_order_relaxed);
        span.total_ms =
            static_cast<double>(s->ns.load(std::memory_order_relaxed)) /
            1e6;
        out.spans.push_back(std::move(span));
    }
    out.uptime_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    spans_.clear();
    start_ = std::chrono::steady_clock::now();
}

// --- Gated lookups. -----------------------------------------------------

SpanNode *
spanIf(Level min, const std::string &path)
{
    return enabled(min) ? MetricsRegistry::instance().span(path) : nullptr;
}

Counter *
counterIf(Level min, const std::string &name)
{
    return enabled(min) ? MetricsRegistry::instance().counter(name)
                        : nullptr;
}

Gauge *
gaugeIf(Level min, const std::string &name)
{
    return enabled(min) ? MetricsRegistry::instance().gauge(name) : nullptr;
}

Histogram *
histogramIf(Level min, const std::string &name, std::vector<double> bounds)
{
    return enabled(min) ? MetricsRegistry::instance().histogram(
                              name, std::move(bounds))
                        : nullptr;
}

void
count(const std::string &name, std::uint64_t delta, Level min)
{
    if (enabled(min))
        MetricsRegistry::instance().counter(name)->add(delta);
}

// --- Exporters. ---------------------------------------------------------

namespace {

/** "round.train" -> "fedgpo_round_train". */
std::string
promName(const std::string &name)
{
    std::string out = "fedgpo_";
    for (char c : name) {
        out += std::isalnum(static_cast<unsigned char>(c))
                   ? c
                   : '_';
    }
    return out;
}

} // namespace

std::string
prometheusText(const MetricsSnapshot &snapshot)
{
    std::ostringstream os;
    for (const auto &[name, value] : snapshot.counters) {
        const std::string p = promName(name) + "_total";
        os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " gauge\n" << p << " " << num(value)
           << "\n";
    }
    for (const auto &[name, h] : snapshot.histograms) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " histogram\n";
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
            os << p << "_bucket{le=\"" << num(h.bounds[b])
               << "\"} " << h.bucket_counts[b] << "\n";
        }
        os << p << "_bucket{le=\"+Inf\"} " << h.bucket_counts.back()
           << "\n";
        os << p << "_sum " << num(h.stat.sum()) << "\n";
        os << p << "_count " << h.stat.count() << "\n";
    }
    for (const auto &span : snapshot.spans) {
        const std::string p = promName("span." + span.name);
        os << "# TYPE " << p << "_ms_total counter\n"
           << p << "_ms_total " << num(span.total_ms) << "\n";
        os << "# TYPE " << p << "_count_total counter\n"
           << p << "_count_total " << span.count << "\n";
    }
    return os.str();
}

bool
writePrometheusFile(const std::string &path)
{
    // Write-temp-then-rename so a scraper racing the writer never sees
    // a truncated exposition; rename(2) is atomic within a filesystem.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out.good()) {
            util::logWarn("metrics: cannot open '" + tmp +
                          "' for the Prometheus snapshot");
            return false;
        }
        out << prometheusText(MetricsRegistry::instance().snapshot());
        out.flush();
        if (!out.good()) {
            util::logWarn("metrics: write failed on '" + tmp + "'");
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        util::logWarn("metrics: cannot rename '" + tmp + "' to '" + path +
                      "'");
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::string
metricsJson()
{
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    std::ostringstream os;
    os << "{\"counters\":{";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\"" << snap.counters[i].first
           << "\":" << snap.counters[i].second;
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\"" << snap.gauges[i].first
           << "\":" << util::jsonNumber(snap.gauges[i].second);
    }
    os << "}}";
    return os.str();
}

void
printSummary(std::ostream &os, std::size_t top_n)
{
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();

    std::vector<MetricsSnapshot::Span> spans = snap.spans;
    std::sort(spans.begin(), spans.end(),
              [](const auto &a, const auto &b) {
                  return a.total_ms > b.total_ms;
              });
    if (spans.size() > top_n)
        spans.resize(top_n);
    util::Table span_table({"span", "count", "total ms", "mean ms"});
    for (const auto &s : spans) {
        span_table.addRow(
            {s.name, std::to_string(s.count), util::fmt(s.total_ms, 2),
             util::fmt(s.count > 0
                           ? s.total_ms / static_cast<double>(s.count)
                           : 0.0,
                       4)});
    }
    if (span_table.rows() > 0)
        span_table.print(os, "Top spans by cumulative host time");

    // Pool utilization: busy time across workers vs. available host time.
    double busy_ms = 0.0, wait_mean_ms = 0.0;
    std::size_t tasks = 0;
    bool have_pool = false;
    for (const auto &[name, h] : snap.histograms) {
        if (name == "pool.task_ms") {
            busy_ms = h.stat.sum();
            tasks = h.stat.count();
            have_pool = true;
        } else if (name == "pool.queue_wait_ms") {
            wait_mean_ms = h.stat.mean();
        }
    }
    if (have_pool) {
        double threads = 1.0;
        for (const auto &[name, value] : snap.gauges)
            if (name == "pool.threads")
                threads = std::max(value, 1.0);
        const double avail_ms = snap.uptime_s * 1e3 * threads;
        util::Table pool_table({"pool tasks", "busy ms", "mean wait ms",
                                "threads", "utilization"});
        pool_table.addRow(
            {std::to_string(tasks), util::fmt(busy_ms, 2),
             util::fmt(wait_mean_ms, 4), util::fmt(threads, 0),
             util::fmtPct(avail_ms > 0.0 ? busy_ms / avail_ms : 0.0)});
        os << "\n";
        pool_table.print(os, "Thread pool");
    }

    util::Table counter_table({"counter", "value"});
    for (const auto &[name, value] : snap.counters) {
        if (value > 0)
            counter_table.addRow({name, std::to_string(value)});
    }
    if (counter_table.rows() > 0) {
        os << "\n";
        counter_table.print(os, "Counters");
    }
}

void
finishRun(std::ostream *os)
{
    // Drain the causal trace into its session first: tracing is gated
    // by FEDGPO_TRACE, not the metrics level. The session stays open, so
    // a later campaign of the same process keeps journaling; the Tracer
    // writes perfetto.json when it finishes, at the latest at exit.
    tracing::Tracer::instance().flush();
    if (!enabled())
        return;
    const std::string &dir = tracing::outputDir();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        writePrometheusFile(dir + "/metrics.prom");
    }
    if (os != nullptr)
        printSummary(*os);
    else if (util::logLevel() <= util::LogLevel::Info)
        printSummary(std::cerr);
}

} // namespace obs
} // namespace fedgpo
