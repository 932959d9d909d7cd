/**
 * @file
 * Trace diffing: compare two run output directories (FEDGPO_TRACE_OUT:
 * per-round trace files from JsonlTraceWriter and/or the journal.jsonl
 * dispatch journal) and report the first diverging round/field. Host-side
 * wall-clock fields (stages_ms, metrics, host_ns, dur_ns, seq, worker)
 * are ignored — they differ run to run by construction; everything
 * modeled must match exactly. This replaces the manual byte-compare
 * workflow used to debug golden drift.
 */

#ifndef FEDGPO_OBS_TRACING_DIFF_H_
#define FEDGPO_OBS_TRACING_DIFF_H_

#include <cstdint>
#include <string>

namespace fedgpo {
namespace obs {
namespace tracing {

/** Outcome of a directory diff: the FIRST divergence, if any. */
struct DiffResult
{
    bool identical = true;
    bool error = false;     //!< a directory could not be read
    std::string file;       //!< file (relative name) of the divergence
    std::size_t line = 0;   //!< 1-based line number within that file
    std::int64_t round = -1; //!< the line's "round" field when present
    std::string field;      //!< dotted JSON path of the diverging field
    std::string detail;     //!< human-readable summary
};

/**
 * Compare every *.jsonl file common to `dir_a` and `dir_b` line by
 * line as parsed JSON (field order is irrelevant; volatile host-time
 * fields are skipped). Files present in only one directory, a torn
 * final line on one side only, and line-count mismatches all count as
 * divergence.
 */
DiffResult diffTraceDirs(const std::string &dir_a, const std::string &dir_b);

/** One-paragraph rendering of a DiffResult for CLI output. */
std::string formatDiff(const DiffResult &result, const std::string &dir_a,
                       const std::string &dir_b);

} // namespace tracing
} // namespace obs
} // namespace fedgpo

#endif // FEDGPO_OBS_TRACING_DIFF_H_
