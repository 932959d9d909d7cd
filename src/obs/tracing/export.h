/**
 * @file
 * Trace exporters and the journal wire format.
 *
 * Two formats share the TraceEvent taxonomy:
 *
 *   journal.jsonl — one compact JSON object per event, one per line.
 *     Keys: k (kind), round, d (dispatch), c (client), seq, host_ns
 *     always; vt, v, bytes, aux, dur_ns, worker, reason only when they
 *     differ from their defaults. Streamed per round, so an aborted run
 *     keeps every completed round (the final line may be torn).
 *
 *   perfetto.json — Chrome trace-event JSON loadable in Perfetto /
 *     chrome://tracing. Process 1 is the modeled virtual-time axis
 *     (one track per client, track 0 for server/round events); process
 *     2 is host time (one track per pool worker plus the main thread).
 *     Flow arrows link dispatch → arrival → fold/reject per trace id.
 */

#ifndef FEDGPO_OBS_TRACING_EXPORT_H_
#define FEDGPO_OBS_TRACING_EXPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "obs/tracing/trace.h"

namespace fedgpo {
namespace obs {
namespace tracing {

/** One journal JSONL line for `event` (no trailing newline). */
std::string journalLine(const TraceEvent &event);

/** Append `events` to `out` as journal lines. */
void appendJournal(std::ostream &out, const std::vector<TraceEvent> &events);

/**
 * Parse one journal line back into an event. Returns false on malformed
 * JSON or an unknown kind; absent optional keys restore their defaults.
 */
bool parseJournalLine(const std::string &line, TraceEvent &out);

/** Inverse of eventKindName; returns false on an unknown label. */
bool eventKindFromName(const std::string &name, EventKind &out);

/** Inverse of reasonName; returns false on an unknown label. */
bool reasonFromName(const std::string &name, Reason &out);

/**
 * Write the Chrome trace-event JSON for `events` to `path`.
 * Returns false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<TraceEvent> &events);

} // namespace tracing
} // namespace obs
} // namespace fedgpo

#endif // FEDGPO_OBS_TRACING_EXPORT_H_
