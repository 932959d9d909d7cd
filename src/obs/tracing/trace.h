/**
 * @file
 * Causal dispatch tracing: a lock-free, per-thread ring-buffer event
 * journal recording the full lifecycle of every dispatch — select →
 * dispatch → train (work fraction) → encode (codec, bytes) → upload
 * retry/failure → arrival → fold/flush or reject (stale, duplicate,
 * quorum, ...) → client eviction/rehydration — across both the
 * synchronous round stages and the async/buffered EventPump.
 *
 * Every event carries BOTH clocks: the modeled fleet::VirtualClock
 * timestamp (`virtual_ts`, seconds; -1 when the event has no modeled
 * time, e.g. host-side training spans) and the host monotonic time
 * (`host_ns`, nanoseconds since the Tracer was created). Chains are
 * keyed by a stable (round_epoch, dispatch, client) trace id: `round`
 * is the epoch the dispatch was created in, `dispatch` the global
 * dispatch sequence number (async) or the cohort slot (sync), `client`
 * the fleet id — the key survives churn, reconnects, and LRU eviction
 * because every later event of the chain re-stamps it.
 *
 * Gating mirrors obs::Level (FEDGPO_METRICS): the process mode is read
 * once from FEDGPO_TRACE (off | dispatch | full, default off) and every
 * emission site guards on `tracing::enabled()` — a single relaxed
 * atomic load. Off means no clock reads, no ring registration, no
 * allocation, and (asserted by the golden tests) bit-identical modeled
 * results; tracing never feeds back into the simulation in any mode.
 *
 *   dispatch — the per-dispatch causal lifecycle events.
 *   full     — dispatch + per-stage host span events (StageSpan).
 *
 * Producers write into a thread-local SPSC ring (fixed capacity;
 * overflow drops the event and counts it — recording never blocks);
 * the drain side consumes all rings under the registry mutex. With
 * tracing on and FEDGPO_TRACE_OUT=<dir> set, Tracer::flush streams
 * drained events to <dir>/journal.jsonl and Tracer::finish() (at the
 * latest, at process exit) writes the Perfetto-loadable
 * <dir>/perfetto.json. The same directory receives the round traces
 * (fl::round::openRoundTrace) and metrics.prom (obs::finishRun).
 */

#ifndef FEDGPO_OBS_TRACING_TRACE_H_
#define FEDGPO_OBS_TRACING_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fedgpo {
namespace obs {
namespace tracing {

/** Tracing modes, ordered by detail (and cost). */
enum class Mode { Off = 0, Dispatch = 1, Full = 2 };

/**
 * The process tracing mode: the first call reads FEDGPO_TRACE
 * (off | dispatch | full; unset or unrecognized values mean off, with
 * a warning), later calls return the cached value.
 */
Mode mode();

/** Override the mode (tests and embedders). */
void setMode(Mode mode);

/**
 * The run's output directory: FEDGPO_TRACE_OUT, read once ("" when
 * unset). Every observability file of the run lands there.
 */
const std::string &outputDir();

/** True when the current mode is at least `min`. */
inline bool
enabled(Mode min = Mode::Dispatch)
{
    return mode() >= min;
}

/** RAII mode override for tests: restores the previous mode on exit. */
class ScopedMode
{
  public:
    explicit ScopedMode(Mode m) : prev_(mode()) { setMode(m); }
    ~ScopedMode() { setMode(prev_); }
    ScopedMode(const ScopedMode &) = delete;
    ScopedMode &operator=(const ScopedMode &) = delete;

  private:
    Mode prev_;
};

/** The event taxonomy: one kind per causal lifecycle step. */
enum class EventKind : std::uint8_t
{
    RoundStart = 0, //!< epoch began (vt = round start)
    Select,         //!< client chosen for a dispatch
    Dispatch,       //!< model shipped (aux = model version at dispatch)
    Train,          //!< local SGD ran (value = work fraction, dur_ns set)
    Encode,         //!< update encoded (aux = codec, bytes = payload)
    UploadRetry,    //!< one retransmission (aux = attempt, value = backoff s)
    UploadExhausted, //!< retry budget spent; the update is lost
    Arrival,        //!< delivery reached the server (aux = staleness)
    Fold,           //!< update folded into the globals (value = scale)
    Buffer,         //!< update parked in the FedBuff buffer (aux = fill)
    Flush,          //!< buffer flushed as one fold (aux = updates)
    Reject,         //!< delivery/dispatch rejected (see `reason`)
    Churn,          //!< dispatch lost mid-flight (value = work fraction)
    Reconnect,      //!< churned/offline client became available again
    Evict,          //!< ClientStore dropped the client's resident state
    Rehydrate,      //!< evicted client rematerialized (residual restored)
    RoundEnd,       //!< epoch finished (vt = round end)
    StageSpan,      //!< full mode: one pipeline stage (aux = stage index)
};

/** Stable short label ("fold", "upload_retry", ...). */
const char *eventKindName(EventKind kind);

/** Why a Reject event happened (superset of fl::DropReason). */
enum class Reason : std::uint8_t
{
    None = 0,
    Offline,
    Crashed,
    Straggler,
    Diverged,
    UploadFailed,
    Churned,
    Stale,
    Duplicate,
    Quorum, //!< round-level: aggregation aborted below quorum
};

/** Stable short label ("stale", "duplicate", "quorum", ...). */
const char *reasonName(Reason reason);

/**
 * One journal entry. POD, copied by value into the ring; `host_ns` and
 * `seq` are stamped by Tracer::record, everything else by the emitter.
 */
struct TraceEvent
{
    EventKind kind = EventKind::RoundStart;
    Reason reason = Reason::None;
    std::int32_t worker = -1;    //!< pool worker id; -1 = owning thread
    std::int32_t round = -1;     //!< round_epoch of the trace id
    std::uint64_t dispatch = 0;  //!< dispatch seq (async) / slot (sync)
    std::uint64_t client = 0;    //!< fleet client id
    double virtual_ts = -1.0;    //!< modeled seconds; -1 = host-only event
    double value = 0.0;          //!< kind-specific (fraction/scale/backoff)
    std::uint64_t bytes = 0;     //!< payload bytes where meaningful
    std::int64_t aux = -1;       //!< staleness/attempt/codec/stage/fill
    std::uint64_t host_ns = 0;   //!< host ns since Tracer creation
    std::uint64_t dur_ns = 0;    //!< host span length (Train/StageSpan)
    std::uint64_t seq = 0;       //!< global emission order
};

/**
 * The process-wide trace collector: a registry of per-thread SPSC
 * rings plus an optional on-disk session (journal + Perfetto export).
 *
 * Thread safety: record() is wait-free for the calling thread (its own
 * ring; a global relaxed fetch_add for the sequence stamp); drain(),
 * flush(), finish(), and reset() serialize on the registry mutex
 * and may run concurrently with producers — the SPSC protocol makes
 * the overlap safe (asserted under TSan).
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Events each thread-local ring can hold before dropping. */
    static constexpr std::size_t kRingCapacity = 1 << 14;

    /**
     * Record one event (stamps host_ns and the global seq). Callers
     * gate on `enabled()` first; record() itself never blocks and
     * drops (counted) when the calling thread's ring is full.
     */
    void record(TraceEvent event);

    /**
     * Consume every ring into `out` (appended, sorted by seq among the
     * newly drained events). Returns the number drained.
     */
    std::size_t drain(std::vector<TraceEvent> &out);

    /**
     * Drain every ring into the session: pulls all pending events and,
     * when a session is open (openSession, or FEDGPO_TRACE_OUT with
     * tracing on), appends them to journal.jsonl and retains them for
     * the Perfetto export. Without a session the events are discarded
     * after the drain — the rings stay bounded either way. Called at
     * every round end and by obs::finishRun; the session stays open.
     */
    void flush();

    /**
     * Open an on-disk session under `dir` (journal.jsonl streamed by
     * flush, perfetto.json written by finish()). Returns false
     * when the journal cannot be opened. Replaces any open session.
     */
    bool openSession(const std::string &dir);

    /** True when an on-disk session is accepting events. */
    bool sessionOpen() const;

    /**
     * Final drain + export: flush the journal, write perfetto.json,
     * and close the session. Idempotent; also called by the destructor
     * so normal exits never lose the Perfetto file.
     */
    void finish();

    /** Events recorded (ring-accepted) since creation/reset. */
    std::uint64_t recordedEvents() const;

    /** Events dropped on ring overflow since creation/reset. */
    std::uint64_t droppedEvents() const;

    /** Host nanoseconds since the Tracer was created. */
    std::uint64_t hostNowNs() const;

    /**
     * Tests: discard all buffered events and counters and close any
     * session. Thread-local rings stay registered (never deallocated
     * before process exit), so concurrent producers stay safe.
     */
    void reset();

    ~Tracer();

  private:
    Tracer();

    struct Ring;

    Ring *localRing();
    void releaseRing(Ring *ring); //!< thread-exit hook: recycle

    /** drain() with the registry lock held. */
    std::size_t drainLocked(std::vector<TraceEvent> &out);

    void resolveSessionFromEnv(); //!< lazy outputDir() (lock held)
    bool openSessionLocked(const std::string &dir); //!< lock held
    void flushLocked(); //!< flush() with the lock held

    friend struct TracerRingHandle;

    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::uint64_t> recorded_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::chrono::steady_clock::time_point start_;

    mutable std::mutex mutex_; //!< registry + session state
    std::vector<std::unique_ptr<Ring>> rings_;
    std::vector<Ring *> free_rings_; //!< rings of exited threads

    bool env_session_checked_ = false;
    bool session_open_ = false;
    bool finished_ = false;
    std::string session_dir_;
    std::ofstream journal_;
    std::vector<TraceEvent> session_events_; //!< kept for perfetto.json
    bool session_events_capped_ = false;
};

} // namespace tracing
} // namespace obs
} // namespace fedgpo

#endif // FEDGPO_OBS_TRACING_TRACE_H_
