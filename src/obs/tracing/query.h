/**
 * @file
 * Journal reading and causal-chain reconstruction: the library behind
 * `tools/trace_query` and the per-dispatch sections of
 * `tools/trace_summarize`. A chain is every journal event sharing one
 * (round_epoch, dispatch, client) trace id, in emission order; its
 * outcome ("folded", "rejected (stale)", "lost to churn", ...) is the
 * terminal event of the chain.
 */

#ifndef FEDGPO_OBS_TRACING_QUERY_H_
#define FEDGPO_OBS_TRACING_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/tracing/trace.h"

namespace fedgpo {
namespace obs {
namespace tracing {

/** A parsed journal plus what had to be skipped to parse it. */
struct Journal
{
    std::vector<TraceEvent> events;
    std::size_t malformed_lines = 0; //!< unparseable non-final lines
    bool torn_final_line = false;    //!< final line unparseable (aborted run)
};

/**
 * Read a journal.jsonl file. Returns false (with `error` set) only when
 * the file cannot be opened; malformed lines are skipped and counted,
 * and an unparseable final line is flagged as torn rather than counted
 * as corruption — that's the normal signature of an aborted run.
 */
bool readJournal(const std::string &path, Journal &out, std::string *error);

/**
 * The stable trace id: which dispatch of which epoch to which client.
 * `run` disambiguates campaigns that share one journal (a process
 * running several simulations appends them back to back; the reader
 * detects each restart by its non-monotone RoundStart sequence).
 */
struct TraceKey
{
    std::int32_t run = 0;
    std::int32_t round = -1;
    std::uint64_t dispatch = 0;
    std::uint64_t client = 0;

    bool operator<(const TraceKey &o) const
    {
        if (run != o.run)
            return run < o.run;
        if (round != o.round)
            return round < o.round;
        if (dispatch != o.dispatch)
            return dispatch < o.dispatch;
        return client < o.client;
    }
    bool operator==(const TraceKey &o) const
    {
        return run == o.run && round == o.round &&
               dispatch == o.dispatch && client == o.client;
    }
};

/** One dispatch's causal chain, events in emission (seq) order. */
struct Chain
{
    TraceKey key;
    std::vector<TraceEvent> events;

    /** "folded" / "buffered→flushed" / "rejected (stale)" / ... */
    std::string outcome() const;

    /** True when the chain reached Fold or a flushed Buffer. */
    bool folded() const;
};

/**
 * Group per-dispatch lifecycle events into chains, sorted by trace id.
 * Round-scoped events (RoundStart/RoundEnd/Flush/StageSpan) and client
 * lifecycle events without a dispatch (Evict/Rehydrate/Reconnect with
 * dispatch 0 and no Select) are not chained.
 */
std::vector<Chain> buildChains(const std::vector<TraceEvent> &events);

/**
 * Human-readable rendering of one chain: a header with the trace id and
 * outcome, then one line per event with both clocks and the
 * kind-specific payload.
 */
std::string formatChain(const Chain &chain);

} // namespace tracing
} // namespace obs
} // namespace fedgpo

#endif // FEDGPO_OBS_TRACING_QUERY_H_
