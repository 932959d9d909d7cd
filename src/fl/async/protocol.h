/**
 * @file
 * Protocol-mode configuration for the event-driven FL server paths.
 *
 * AsyncConfig is the FlConfig sub-struct selecting Sync (the
 * round-barrier default, bit-identical to the historical pipeline) or
 * one of the VirtualClock-driven modes: Async (FedAsync-style
 * fold-on-arrival, staleness-weighted) and Buffered (FedBuff-style
 * flush every M arrivals or on a wall-clock timeout).
 * Validation follows the PR 3/PR 7 style: out-of-range knobs are fatal
 * at the simulator boundary, recoverable excesses warn and clamp.
 */

#ifndef FEDGPO_FL_ASYNC_PROTOCOL_H_
#define FEDGPO_FL_ASYNC_PROTOCOL_H_

#include <cstddef>

#include "fl/types.h"

namespace fedgpo {
namespace fl {
namespace async {

/** Which staleness-weighting shape the server applies. */
enum class StalenessKind
{
    Constant,   //!< weight(τ) = 1
    Polynomial, //!< weight(τ) = 1/(1+τ)^a
    Hinge,      //!< weight(τ) = 1 for τ <= b, else 1/(1+a(τ-b))
};

/**
 * Event-driven protocol knobs. Defaults select Sync with every async
 * knob inert, so a default-constructed FlConfig behaves exactly as
 * before this subsystem existed.
 */
struct AsyncConfig
{
    /** Which server protocol folds client updates. */
    ProtocolMode mode = ProtocolMode::Sync;

    /**
     * Server mixing rate for Async mode: an arriving update moves the
     * global model by clip(mix * weight(τ), 0, 1) of the delta. Must
     * lie in (0, 1]. FedAsync's α.
     */
    double mix = 0.6;

    /** Staleness-weighting shape for Async mode. */
    StalenessKind staleness = StalenessKind::Polynomial;

    /**
     * Shape knob: Polynomial's exponent a in 1/(1+τ)^a, Hinge's decay
     * slope. Must be > 0 for those kinds; ignored by Constant.
     */
    double staleness_exponent = 0.5;

    /** Hinge knee: full weight while τ <= knee. Must be >= 0. */
    int staleness_knee = 4;

    /**
     * Reject updates with τ > max_staleness (DropReason::Stale) instead
     * of down-weighting them. < 0 is invalid; 0 keeps only updates
     * trained against the current model. Default effectively unbounded.
     */
    int max_staleness = 1 << 20;

    /**
     * Buffered mode: fold the buffer every M arrivals (FedBuff's M).
     * Must be >= 1; warn+clamped to the concurrency K when it exceeds
     * it (a buffer larger than the in-flight set can never fill).
     */
    int buffer_size = 8;

    /**
     * Buffered mode: flush a non-empty buffer when this much modeled
     * time passed since its first arrival, even below M updates — the
     * quorum gate generalized to a wall-clock timeout. <= 0 disables
     * the timeout (flush strictly every M); must be finite.
     */
    double buffer_timeout_s = 0.0;

    /**
     * Dispatches folded per runRound() call in the event modes — one
     * "epoch" of the virtual-time feedback loop. 0 (default) means K,
     * the configured cohort size, so one epoch does the same update
     * work as one synchronous round.
     */
    int folds_per_epoch = 0;

    /** True for a VirtualClock-driven mode. */
    bool eventDriven() const { return mode != ProtocolMode::Sync; }
};

/**
 * Reject invalid knobs with util::fatal; warn+clamp recoverable ones
 * (buffer_size > n_devices). Called from the FlSimulator constructor.
 *
 * @param config    The knobs to check (clamped in place).
 * @param n_devices Fleet size, the hard upper bound on concurrency.
 */
void validateAsyncConfig(AsyncConfig &config, std::size_t n_devices);

/**
 * FedAsync staleness weight (Xie et al., "Asynchronous Federated
 * Optimization") for an update trained against model version v that
 * arrives at version v + tau: config.staleness picks the shape, with
 * a = staleness_exponent and b = staleness_knee. A pure function of
 * tau (< 0 counts as 0), in (0, 1], and 1 at tau = 0, so a fresh update
 * is never discounted.
 */
double stalenessWeight(const AsyncConfig &config, int tau);

} // namespace async
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ASYNC_PROTOCOL_H_
