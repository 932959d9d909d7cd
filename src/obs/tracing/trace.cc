#include "obs/tracing/trace.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "obs/tracing/export.h"
#include "util/logging.h"

namespace fedgpo {
namespace obs {
namespace tracing {

namespace {

/** -1 = not yet resolved from the environment. */
std::atomic<int> g_mode{-1};

Mode
modeFromEnv()
{
    const char *env = std::getenv("FEDGPO_TRACE");
    if (env == nullptr || *env == '\0')
        return Mode::Off;
    const std::string v(env);
    if (v == "off")
        return Mode::Off;
    if (v == "dispatch")
        return Mode::Dispatch;
    if (v == "full")
        return Mode::Full;
    util::logWarn("FEDGPO_TRACE: unrecognized value '" + v +
                  "' (want off|dispatch|full); tracing stays off");
    return Mode::Off;
}

/** Cap on the events retained in memory for the Perfetto export. */
constexpr std::size_t kSessionEventCap = 1u << 22; // ~4M events

} // namespace

Mode
mode()
{
    int v = g_mode.load(std::memory_order_acquire);
    if (v < 0) {
        v = static_cast<int>(modeFromEnv());
        int expected = -1;
        // First resolver wins; a concurrent setMode() is preserved.
        g_mode.compare_exchange_strong(expected, v,
                                       std::memory_order_acq_rel);
        v = g_mode.load(std::memory_order_acquire);
    }
    return static_cast<Mode>(v);
}

void
setMode(Mode m)
{
    g_mode.store(static_cast<int>(m), std::memory_order_release);
}

const std::string &
outputDir()
{
    static const std::string dir = [] {
        const char *env = std::getenv("FEDGPO_TRACE_OUT");
        return std::string(env != nullptr ? env : "");
    }();
    return dir;
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::RoundStart:
        return "round_start";
      case EventKind::Select:
        return "select";
      case EventKind::Dispatch:
        return "dispatch";
      case EventKind::Train:
        return "train";
      case EventKind::Encode:
        return "encode";
      case EventKind::UploadRetry:
        return "upload_retry";
      case EventKind::UploadExhausted:
        return "upload_exhausted";
      case EventKind::Arrival:
        return "arrival";
      case EventKind::Fold:
        return "fold";
      case EventKind::Buffer:
        return "buffer";
      case EventKind::Flush:
        return "flush";
      case EventKind::Reject:
        return "reject";
      case EventKind::Churn:
        return "churn";
      case EventKind::Reconnect:
        return "reconnect";
      case EventKind::Evict:
        return "evict";
      case EventKind::Rehydrate:
        return "rehydrate";
      case EventKind::RoundEnd:
        return "round_end";
      case EventKind::StageSpan:
        return "stage";
    }
    return "unknown";
}

const char *
reasonName(Reason reason)
{
    switch (reason) {
      case Reason::None:
        return "none";
      case Reason::Offline:
        return "offline";
      case Reason::Crashed:
        return "crashed";
      case Reason::Straggler:
        return "straggler";
      case Reason::Diverged:
        return "diverged";
      case Reason::UploadFailed:
        return "upload_failed";
      case Reason::Churned:
        return "churned";
      case Reason::Stale:
        return "stale";
      case Reason::Duplicate:
        return "duplicate";
      case Reason::Quorum:
        return "quorum";
    }
    return "unknown";
}

// ---- The per-thread SPSC ring. -------------------------------------------

/**
 * Single-producer (the owning thread) / single-consumer (the drainer,
 * serialized by the registry mutex) ring. head is only advanced by the
 * producer after the slot write (release), tail only by the consumer
 * after the slot read (release) — the classic bounded SPSC protocol,
 * so recording stays wait-free and drains may overlap production.
 */
struct Tracer::Ring
{
    Ring() : slots(kRingCapacity) {}

    std::vector<TraceEvent> slots;
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> tail{0};
};

/**
 * Thread-local ring handle: registered on first record() from a
 * thread, recycled into the Tracer's free list when the thread exits
 * (pool workers die with their simulator; their rings are reused by
 * later pools instead of accumulating).
 */
struct TracerRingHandle
{
    Tracer::Ring *ring = nullptr;
    Tracer *owner = nullptr;

    ~TracerRingHandle()
    {
        if (ring != nullptr && owner != nullptr)
            owner->releaseRing(ring);
    }
};

namespace {

thread_local TracerRingHandle t_ring;

} // namespace

// ---- Tracer. -------------------------------------------------------------

Tracer::Tracer() : start_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer()
{
    finish();
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::hostNowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
}

Tracer::Ring *
Tracer::localRing()
{
    if (t_ring.ring != nullptr && t_ring.owner == this)
        return t_ring.ring;
    std::lock_guard<std::mutex> lock(mutex_);
    Ring *ring = nullptr;
    if (!free_rings_.empty()) {
        ring = free_rings_.back();
        free_rings_.pop_back();
    } else {
        rings_.push_back(std::make_unique<Ring>());
        ring = rings_.back().get();
    }
    t_ring.ring = ring;
    t_ring.owner = this;
    return ring;
}

void
Tracer::releaseRing(Ring *ring)
{
    std::lock_guard<std::mutex> lock(mutex_);
    free_rings_.push_back(ring);
}

void
Tracer::record(TraceEvent event)
{
    Ring *ring = localRing();
    event.host_ns = hostNowNs();
    event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
    if (head - tail >= ring->slots.size()) {
        // Full: drop rather than block or grow — tracing must never
        // stall a worker. The drop is visible in droppedEvents().
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    ring->slots[head & (ring->slots.size() - 1)] = event;
    ring->head.store(head + 1, std::memory_order_release);
    recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t
Tracer::drainLocked(std::vector<TraceEvent> &out)
{
    const std::size_t first = out.size();
    for (const auto &ring : rings_) {
        std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        for (; tail < head; ++tail)
            out.push_back(ring->slots[tail & (ring->slots.size() - 1)]);
        ring->tail.store(tail, std::memory_order_release);
    }
    // Emission order across threads: the global seq stamp.
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.seq < b.seq;
              });
    return out.size() - first;
}

std::size_t
Tracer::drain(std::vector<TraceEvent> &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return drainLocked(out);
}

void
Tracer::resolveSessionFromEnv()
{
    // Tracing off opens no session: the output directory then holds only
    // round traces and metrics.prom, not an empty journal.
    if (env_session_checked_ || mode() == Mode::Off)
        return;
    env_session_checked_ = true;
    if (!outputDir().empty())
        openSessionLocked(outputDir());
}

bool
Tracer::openSessionLocked(const std::string &dir)
{
    if (journal_.is_open())
        journal_.close();
    session_events_.clear();
    session_events_capped_ = false;
    session_dir_ = dir;
    std::error_code ec;
    std::filesystem::create_directories(session_dir_, ec);
    journal_.open(session_dir_ + "/journal.jsonl",
                  std::ios::out | std::ios::trunc);
    session_open_ = journal_.good();
    if (!session_open_) {
        util::logWarn("tracing: cannot open '" + session_dir_ +
                      "/journal.jsonl'; trace session disabled");
        return false;
    }
    finished_ = false;
    return true;
}

bool
Tracer::openSession(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    env_session_checked_ = true; // explicit session overrides the env
    return openSessionLocked(dir);
}

bool
Tracer::sessionOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return session_open_;
}

void
Tracer::flushLocked()
{
    resolveSessionFromEnv();
    std::vector<TraceEvent> events;
    if (drainLocked(events) == 0 || !session_open_)
        return;
    appendJournal(journal_, events, 0);
    journal_.flush();
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (session_events_.size() >= kSessionEventCap) {
            if (!session_events_capped_) {
                session_events_capped_ = true;
                util::logWarn(
                    "tracing: Perfetto export capped at " +
                    std::to_string(kSessionEventCap) +
                    " events; journal.jsonl keeps streaming the rest");
            }
            break;
        }
        session_events_.push_back(events[i]);
    }
}

void
Tracer::flush()
{
    // Fast exit for untraced runs: no event was ever recorded, so the
    // registry holds nothing to drain and no session wants opening.
    if (recorded_.load(std::memory_order_relaxed) == 0 && mode() == Mode::Off)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    flushLocked();
}

void
Tracer::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_)
        return;
    flushLocked();
    if (!session_open_)
        return;
    finished_ = true;
    journal_.flush();
    journal_.close();
    const std::string perfetto = session_dir_ + "/perfetto.json";
    if (!writeChromeTrace(perfetto, session_events_))
        util::logWarn("tracing: failed to write '" + perfetto + "'");
    session_open_ = false;
    session_events_.clear();
    session_events_.shrink_to_fit();
}

std::uint64_t
Tracer::recordedEvents() const
{
    return recorded_.load(std::memory_order_relaxed);
}

std::uint64_t
Tracer::droppedEvents() const
{
    return dropped_.load(std::memory_order_relaxed);
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ring : rings_) {
        // Discard contents from the consumer side; producers keep
        // writing safely against the advanced tail.
        const std::uint64_t head =
            ring->head.load(std::memory_order_acquire);
        ring->tail.store(head, std::memory_order_release);
    }
    recorded_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    if (journal_.is_open())
        journal_.close();
    session_open_ = false;
    finished_ = false;
    env_session_checked_ = true; // a reset run controls its own session
    session_dir_.clear();
    session_events_.clear();
    session_events_capped_ = false;
}

} // namespace tracing
} // namespace obs
} // namespace fedgpo
