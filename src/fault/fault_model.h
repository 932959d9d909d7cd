/**
 * @file
 * Deterministic fault injection for the round pipeline.
 *
 * Real fleets lose participants: devices are offline when the server
 * tries to reach them, crash mid-training (app killed, battery died,
 * thermal shutdown), or fail transient uplink transfers on a flaky
 * wireless link. AutoFL (Kim & Wu, arXiv:2107.08147) models failed and
 * dropped participants as a first-class source of runtime variance;
 * this subsystem injects exactly those events into the simulator so the
 * global-parameter policies face the dropout regimes they would see in
 * production.
 *
 * Determinism follows the training-RNG discipline (see DESIGN.md,
 * "Runtime & threading model"): every per-(round, client) fault draw
 * comes from its own `Rng(seed') -> split(round) -> split(client)`
 * stream, a pure function of (seed, round, client). Fault outcomes are
 * therefore bit-identical for any worker-thread count and independent
 * of how many draws any other stream consumed.
 */

#ifndef FEDGPO_FAULT_FAULT_MODEL_H_
#define FEDGPO_FAULT_FAULT_MODEL_H_

#include <cstdint>

namespace fedgpo {
namespace fault {

/**
 * Fault-injection knobs. All rates default to zero, which makes the
 * model inert: with a default FaultConfig the round pipeline is
 * bit-identical to a build without the fault subsystem (asserted by
 * tests/round_golden_test.cc).
 */
struct FaultConfig
{
    /** P(device unreachable at selection time), per (round, client). */
    double offline_rate = 0.0;

    /** P(device crashes mid-training), per (round, client). */
    double crash_rate = 0.0;

    /** P(one upload attempt fails transiently), per attempt. */
    double upload_failure_rate = 0.0;

    /**
     * Upload retries after the first failed attempt before the server
     * gives up on the client (DropReason::UploadFailed).
     */
    int max_upload_retries = 3;

    /** First retry backoff (seconds); doubles per retry. */
    double backoff_base_s = 0.5;

    /** Cap on a single backoff interval (seconds). */
    double backoff_cap_s = 8.0;

    /**
     * Quorum gate: abort the round (global weights untouched) when the
     * kept updates fall below this fraction of the round's requested
     * cohort size K. 0 disables the gate.
     */
    double quorum_fraction = 0.0;

    // ---- Async-protocol fault processes (src/fl/async/). ---------------
    // These draws key on the *dispatch*, not the round: a dispatch is
    // one server->client->server exchange of the event-driven protocols,
    // and its fault stream is a pure function of (seed, dispatch, client).

    /**
     * P(an in-flight client goes offline or crashes between dispatch
     * and arrival), per dispatch. The churned device completes a
     * sampled fraction of its round, burns the corresponding energy,
     * loses its update, and stays unreachable until it reconnects.
     * Only consulted by the async/buffered protocols.
     */
    double churn_rate = 0.0;

    /**
     * P(an arriving update is delivered twice), per dispatch. The
     * second copy lands after the first was folded and must be
     * rejected via the per-client dispatch epoch. Only consulted by
     * the async/buffered protocols.
     */
    double duplicate_rate = 0.0;

    /**
     * Mean unreachable window after a churn (seconds of modeled time);
     * the actual delay is this scaled by a per-dispatch uniform draw
     * in [0.5, 1.5).
     */
    double reconnect_delay_s = 30.0;

    /** True when any synchronous-path fault process can fire. */
    bool active() const
    {
        return offline_rate > 0.0 || crash_rate > 0.0 ||
               upload_failure_rate > 0.0;
    }

    /** True when any dispatch-keyed (async) fault process can fire. */
    bool asyncActive() const
    {
        return churn_rate > 0.0 || duplicate_rate > 0.0 ||
               offline_rate > 0.0 || upload_failure_rate > 0.0;
    }

    /** Reject out-of-range knobs with util::fatal. */
    void validate() const;
};

/** Kind of an injected fault event (round-record and trace vocabulary). */
enum class FaultKind
{
    Offline,         //!< device unreachable at selection
    Crash,           //!< device died mid-training
    UploadRetry,     //!< one transient upload failure (will retry)
    UploadExhausted, //!< retries exhausted; update lost
    Churn,           //!< in-flight device lost mid-dispatch (async)
    Duplicate,       //!< second delivery rejected by dispatch epoch
    Stale,           //!< update older than max_staleness rejected
};

/** Short stable label ("offline", "crash", ...). */
const char *faultKindName(FaultKind kind);

/**
 * The fault outcome drawn for one (round, client) pair. All component
 * draws come from the pair's private stream in a fixed order, so one
 * outcome never perturbs another.
 */
struct FaultDraw
{
    bool offline = false;

    bool crash = false;

    /** Completed-work fraction at the crash point, in (0, 1). */
    double crash_fraction = 1.0;

    /**
     * Consecutive failed upload attempts before the first success,
     * counted without cap; fl::round::chargeRetries clamps it against
     * max_upload_retries.
     */
    int upload_failures = 0;
};

/**
 * The fault outcome drawn for one dispatch of the async protocols. As
 * with FaultDraw, every component comes from the dispatch's private
 * stream in a fixed order, so enabling one process never re-randomizes
 * another.
 */
struct AsyncFaultDraw
{
    /** Device unreachable when the server tried to dispatch. */
    bool offline = false;

    /** See FaultDraw::upload_failures. */
    int upload_failures = 0;

    /** Device churns (goes offline/crashes) before its update arrives. */
    bool churn = false;

    /** Completed-work fraction at the churn point, in (0.05, 0.95). */
    double churn_fraction = 1.0;

    /** Reconnect-delay multiplier in [0.5, 1.5). */
    double reconnect_scale = 1.0;

    /** The arriving update is delivered a second time. */
    bool duplicate = false;

    /** Second delivery's lag, as a fraction of the round time. */
    double duplicate_lag = 0.0;
};

/**
 * Seeded fault-event source. Stateless between draws: draw(round,
 * client) is a pure function, so it can be consulted from any thread
 * (the engine only consults it on the caller thread).
 */
class FaultModel
{
  public:
    /**
     * @param config Rates and retry policy knobs (validated here).
     * @param seed   Root simulator seed; the model derives its own
     *               stream family from it.
     */
    FaultModel(const FaultConfig &config, std::uint64_t seed);

    /** True when any fault process can fire. */
    bool active() const { return config_.active(); }

    const FaultConfig &config() const { return config_; }

    /** The fault outcome for one (round, client) pair. */
    FaultDraw draw(int round, std::size_t client_id) const;

    /**
     * The fault outcome for one async dispatch, keyed by the global
     * dispatch sequence number instead of the round — a pure function
     * of (seed, dispatch_seq, client) under its own root constant, so
     * async fault streams never collide with the per-round streams.
     */
    AsyncFaultDraw drawDispatch(std::uint64_t dispatch_seq,
                                std::size_t client_id) const;

    /**
     * Capped exponential backoff before retry `retry` (0-based):
     * min(backoff_base_s * 2^retry, backoff_cap_s).
     */
    static double backoff(const FaultConfig &config, int retry);

  private:
    FaultConfig config_;
    std::uint64_t seed_;
};

} // namespace fault
} // namespace fedgpo

#endif // FEDGPO_FAULT_FAULT_MODEL_H_
