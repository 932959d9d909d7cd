/**
 * @file
 * Protocol-mode configuration for the event-driven FL server paths.
 *
 * AsyncConfig is the FlConfig sub-struct selecting Sync (the
 * round-barrier default, bit-identical to the historical pipeline) or
 * one of the VirtualClock-driven modes: Async (FedAsync-style
 * fold-on-arrival, weighted by 1/(1+τ)^0.5) and Buffered (FedBuff-style
 * flush every M arrivals, or when the pump is starved).
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
    Polynomial, //!< weight(τ) = 1/(1+τ)^0.5
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

    /**
     * Staleness-weighting shape for Async mode. Polynomial is the only
     * one, so nothing reads this; bench/e2e still names it.
     */
    StalenessKind staleness = StalenessKind::Polynomial;

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
 * arrives at version v + tau: the polynomial 1/(1+tau)^0.5. A pure
 * function of tau (< 0 counts as 0), in (0, 1], and 1 at tau = 0, so a
 * fresh update is never discounted.
 */
double stalenessWeight(int tau);

} // namespace async
} // namespace fl
} // namespace fedgpo

#endif // FEDGPO_FL_ASYNC_PROTOCOL_H_
