#include "obs/tracing/trace.h"

#include <algorithm>
#include <atomic>
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
    if (v == "full")
        return Mode::Full;
    util::logWarn("FEDGPO_TRACE: unrecognized value '" + v +
                  "' (want off|full); tracing stays off");
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

void
Tracer::record(TraceEvent event)
{
    event.host_ns = hostNowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    event.seq = seq_++;
    buffer_.push_back(event);
}

std::size_t
Tracer::drain(std::vector<TraceEvent> &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = buffer_.size();
    out.insert(out.end(), buffer_.begin(), buffer_.end());
    buffer_.clear();
    return n;
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
    if (session_open_) {
        appendJournal(journal_, buffer_);
        journal_.flush();
        const std::size_t kept = std::min(
            buffer_.size(), kSessionEventCap - session_events_.size());
        if (kept < buffer_.size() && !session_events_capped_) {
            session_events_capped_ = true;
            util::logWarn("tracing: Perfetto export capped at " +
                          std::to_string(kSessionEventCap) +
                          " events; journal.jsonl keeps streaming the rest");
        }
        session_events_.insert(session_events_.end(), buffer_.begin(),
                               buffer_.begin() +
                                   static_cast<std::ptrdiff_t>(kept));
    }
    buffer_.clear();
}

void
Tracer::flush()
{
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
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    buffer_.clear();
    seq_ = 0;
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
