/**
 * @file
 * Discrete-event virtual clock for the fleet: modeled device
 * completion/upload events advance in timestamp order instead of the
 * round loop iterating every client.
 *
 * The clock carries *modeled* time (seconds of simulated wall clock,
 * the same unit as RoundCost::t_round) across rounds: round r starts at
 * the instant round r-1's gating time elapsed. Popping events in
 * (timestamp, client id, insertion order) order gives each participant
 * a deterministic arrival timestamp and rank — the substrate the
 * async/buffered protocols (src/fl/async/) pump their dispatch
 * completions, churn and reconnects through, while the synchronous
 * pipeline merely annotates its reports with arrival order (bit-inert
 * for every modeled result).
 */

#ifndef FEDGPO_FLEET_VIRTUAL_CLOCK_H_
#define FEDGPO_FLEET_VIRTUAL_CLOCK_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

namespace fedgpo {
namespace fleet {

/** One scheduled fleet event. */
struct FleetEvent
{
    /** What happened at the timestamp. */
    enum class Kind
    {
        Completion, //!< device finished local work + upload
        Churn,      //!< in-flight device went offline/crashed mid-round
        Reconnect,  //!< churned device came back online
    };

    double ts = 0.0;          //!< modeled time (s)
    std::size_t client_id = 0;
    Kind kind = Kind::Completion;
    std::uint64_t seq = 0;    //!< insertion order, the final tie-break

    /**
     * Opaque payload for the scheduler's consumer — the async event
     * pump stores the per-client dispatch epoch here so a late or
     * duplicate delivery of a superseded dispatch is detectable at pop
     * time. 0 (the default) for annotation-only scheduling.
     */
    std::uint64_t tag = 0;
};

/**
 * Min-ordered event queue over modeled time.
 *
 * Ordering contract: events pop by ascending (ts, client_id, seq) —
 * simultaneous completions resolve by client id so arrival ranks are a
 * pure function of the modeled costs, and seq (insertion order) breaks
 * the degenerate tie of one client scheduling twice at one instant.
 * Not thread-safe; the round pipeline schedules and drains on the
 * caller thread only.
 */
class VirtualClock
{
  public:
    /** Current modeled time (s); starts at 0. */
    double now() const { return now_; }

    /**
     * Schedule an event. Timestamps may lie before now() — a
     * replayed/annotation-only schedule is legal; advanceTo() alone
     * moves the clock.
     */
    void schedule(double ts, std::size_t client_id,
                  FleetEvent::Kind kind = FleetEvent::Kind::Completion,
                  std::uint64_t tag = 0);

    /** Pending event count. */
    std::size_t pending() const { return queue_.size(); }

    /** True when no event is queued. */
    bool empty() const { return queue_.empty(); }

    /**
     * Pop the minimum event by (ts, client_id, seq). Requires a
     * non-empty queue. Does not advance the clock (the synchronous
     * round gates on the deadline drop's time, not on the last
     * event).
     */
    FleetEvent pop();

    /** Advance the clock monotonically; earlier timestamps are no-ops. */
    void advanceTo(double ts);

  private:
    struct Later
    {
        bool
        operator()(const FleetEvent &a, const FleetEvent &b) const
        {
            if (a.ts != b.ts)
                return a.ts > b.ts;
            if (a.client_id != b.client_id)
                return a.client_id > b.client_id;
            return a.seq > b.seq;
        }
    };

    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::priority_queue<FleetEvent, std::vector<FleetEvent>, Later> queue_;
};

} // namespace fleet
} // namespace fedgpo

#endif // FEDGPO_FLEET_VIRTUAL_CLOCK_H_
