/**
 * @file
 * Process-wide metrics and profiling registry for host-side observability.
 *
 * Everything here measures the *host* — wall-clock spans, thread-pool
 * queueing, fault/retry counters — never the simulated fleet: modeled
 * time and energy live in the device cost model and must stay
 * bit-identical whether metrics are off or on (asserted by
 * tests/round_golden_test.cc). Instrumentation is gated by a process
 * level read once from the FEDGPO_METRICS environment variable
 * (off | basic | profile, default off):
 *
 *   off     — every probe compiles down to a null-pointer check; no
 *             clock reads, no allocation, no registry traffic.
 *   basic   — round-stage spans, thread-pool queue-wait/busy histograms,
 *             fault and round counters.
 *   profile — basic plus the hot-path spans: per-layer nn::Model
 *             forward/backward and the SGD parameter update.
 *
 * All mutation paths are thread-safe under the worker pool: counters,
 * gauges, and span accumulators are atomics; each histogram takes one
 * mutex. Exporters (Prometheus text, JSON section for the round trace,
 * util::Table summary) read one consistent, name-sorted snapshot.
 */

#ifndef FEDGPO_OBS_METRICS_H_
#define FEDGPO_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.h"

namespace fedgpo {
namespace obs {

/** Instrumentation levels, ordered by cost. */
enum class Level { Off = 0, Basic = 1, Profile = 2 };

/**
 * The process instrumentation level: the first call reads FEDGPO_METRICS
 * (off | basic | profile; unset or unrecognized values log a warning and
 * mean off), later calls return the cached value. setLevel() overrides it.
 */
Level level();

/** Override the level (tests and embedders). */
void setLevel(Level level);

/** True when the current level is at least `min`. */
inline bool
enabled(Level min = Level::Basic)
{
    return level() >= min;
}

/** RAII level override for tests: restores the previous level on exit. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(Level l) : prev_(level()) { setLevel(l); }
    ~ScopedLevel() { setLevel(prev_); }
    ScopedLevel(const ScopedLevel &) = delete;
    ScopedLevel &operator=(const ScopedLevel &) = delete;

  private:
    Level prev_;
};

/** Monotonic counter. Increments are lock-free. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-value gauge. Stores are lock-free. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Fixed-bucket histogram with running mean/min/max/sum. */
class Histogram
{
  public:
    /** @param bounds Ascending upper bucket bounds; +inf is implicit. */
    explicit Histogram(std::vector<double> bounds);

    /** Fold one observation in (thread-safe). */
    void add(double x);

    struct Snapshot
    {
        util::RunningStat stat;
        std::vector<double> bounds;             //!< upper bucket bounds
        std::vector<std::uint64_t> bucket_counts; //!< cumulative (le-style)
    };
    Snapshot snapshot() const;

  private:
    const std::vector<double> bounds_;
    mutable std::mutex mutex_; //!< guards stat_ and buckets_
    util::RunningStat stat_;
    std::vector<std::uint64_t> buckets_;
};

/**
 * One node of the hierarchical host-time profile. Nodes are identified
 * by dotted paths ("round.train", "model.forward.02_conv", ...); the
 * hierarchy is the path prefix structure, so accumulation needs no
 * parent links and is lock-free.
 */
struct SpanNode
{
    std::string name;
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> count{0};

    explicit SpanNode(std::string n) : name(std::move(n)) {}

    void
    addNs(std::uint64_t delta_ns)
    {
        ns.fetch_add(delta_ns, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
    }
};

/** Record an externally measured duration (milliseconds). Null-safe. */
inline void
addSpanMs(SpanNode *node, double ms)
{
    if (node != nullptr && ms >= 0.0)
        node->addNs(static_cast<std::uint64_t>(ms * 1e6));
}

/**
 * RAII span timer: times construction-to-destruction and folds the
 * elapsed time into the node. A null node disables the timer entirely
 * (no clock reads) — pass `spanIf(...)`'s result directly.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(SpanNode *node) : node_(node)
    {
        if (node_ != nullptr)
            t0_ = std::chrono::steady_clock::now();
    }
    ~ScopedTimer()
    {
        if (node_ != nullptr) {
            const auto dt = std::chrono::steady_clock::now() - t0_;
            node_->addNs(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()));
        }
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    SpanNode *node_;
    std::chrono::steady_clock::time_point t0_;
};

/** Name-sorted point-in-time view of the whole registry. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    struct Span
    {
        std::string name;
        std::uint64_t count = 0;
        double total_ms = 0.0;
    };
    std::vector<Span> spans;
    double uptime_s = 0.0; //!< host seconds since registry creation
};

/**
 * The process-wide registry. Metric objects are created on first lookup
 * and live for the process; returned pointers are stable, so hot paths
 * resolve them once and then mutate them without the registry lock.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Find-or-create; never null. */
    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);
    /** `bounds` applies only when the histogram does not exist yet. */
    Histogram *histogram(const std::string &name,
                         std::vector<double> bounds);
    SpanNode *span(const std::string &path);

    MetricsSnapshot snapshot() const;

    /**
     * Zero every metric and drop every registration (tests). Pointers
     * previously handed out become dangling — re-resolve after reset.
     */
    void reset();

  private:
    MetricsRegistry();

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::unique_ptr<SpanNode>> spans_;
    std::chrono::steady_clock::time_point start_;
};

/** Level-gated lookups: null below `min`, so probes vanish when off. */
SpanNode *spanIf(Level min, const std::string &path);
Counter *counterIf(Level min, const std::string &name);
Gauge *gaugeIf(Level min, const std::string &name);
Histogram *histogramIf(Level min, const std::string &name,
                       std::vector<double> bounds);

/** Null-safe counter bump. */
inline void
addCount(Counter *c, std::uint64_t delta = 1)
{
    if (c != nullptr)
        c->add(delta);
}

/** Convenience: level-gated one-shot counter bump by name. */
void count(const std::string &name, std::uint64_t delta = 1,
           Level min = Level::Basic);

/**
 * Prometheus text exposition of a snapshot: counters and span totals as
 * counters, gauges as gauges, histograms with cumulative le-buckets.
 * Metric names are prefixed "fedgpo_" and mangled to [a-zA-Z0-9_].
 */
std::string prometheusText(const MetricsSnapshot &snapshot);

/** Write prometheusText(snapshot()) to `path`. Logs and returns false
 *  on failure (exporting must never kill a run). */
bool writePrometheusFile(const std::string &path);

/**
 * Compact JSON object ({"counters":{...},"gauges":{...}}) of the current
 * counters and gauges — the `metrics` section of the round trace.
 */
std::string metricsJson();

/**
 * End-of-campaign summary: top-N spans by cumulative time, thread-pool
 * utilization, and non-zero counters, rendered via util::Table.
 */
void printSummary(std::ostream &os, std::size_t top_n = 12);

/**
 * End-of-run hook for campaign runners and examples: drains the causal
 * trace into its open session, then, with metrics enabled, writes a
 * Prometheus snapshot to <tracing::outputDir()>/metrics.prom (when
 * FEDGPO_TRACE_OUT is set) and prints the summary table — to `os` when
 * given, else to stderr when the log level admits Info. Safe to call
 * after every campaign of a process.
 */
void finishRun(std::ostream *os = nullptr);

} // namespace obs
} // namespace fedgpo

#endif // FEDGPO_OBS_METRICS_H_
