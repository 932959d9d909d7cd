#include "obs/tracing/query.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "obs/tracing/export.h"

namespace fedgpo {
namespace obs {
namespace tracing {

namespace {

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Events that belong to a per-dispatch causal chain. */
bool
chainKind(EventKind kind)
{
    switch (kind) {
      case EventKind::Select:
      case EventKind::Dispatch:
      case EventKind::Train:
      case EventKind::Encode:
      case EventKind::UploadRetry:
      case EventKind::Arrival:
      case EventKind::Fold:
      case EventKind::Buffer:
      case EventKind::Churn:
      case EventKind::Reject:
        return true;
      default:
        return false;
    }
}

} // namespace

bool
readJournal(const std::string &path, Journal &out, std::string *error)
{
    std::ifstream in(path);
    if (!in.good()) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::string line;
    bool last_ok = true;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        TraceEvent event;
        if (parseJournalLine(line, event)) {
            out.events.push_back(event);
            last_ok = true;
        } else {
            out.malformed_lines += 1;
            last_ok = false;
        }
    }
    if (!last_ok) {
        // The torn tail of an aborted run, not corruption in the middle.
        out.malformed_lines -= 1;
        out.torn_final_line = true;
    }
    return true;
}

bool
Chain::folded() const
{
    bool buffered = false;
    for (const TraceEvent &e : events) {
        if (e.kind == EventKind::Fold)
            return true;
        if (e.kind == EventKind::Buffer)
            buffered = true;
    }
    return buffered;
}

std::string
Chain::outcome() const
{
    // A flush Fold always shares its chain with the Buffer event that
    // parked the update (and follows it), so resolve `buffered` up
    // front; a bare Fold is the sync pipeline or async fold-on-arrival.
    bool buffered = false;
    for (const TraceEvent &e : events)
        if (e.kind == EventKind::Buffer)
            buffered = true;
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
        switch (it->kind) {
          case EventKind::Fold:
            return buffered ? "buffered→flushed" : "folded";
          case EventKind::Reject:
            return std::string("rejected (") + reasonName(it->reason) + ")";
          case EventKind::Churn:
            return "lost to churn";
          default:
            break;
        }
    }
    if (buffered)
        return "buffered (pending)";
    return "in flight";
}

std::vector<Chain>
buildChains(const std::vector<TraceEvent> &events)
{
    std::map<TraceKey, std::vector<TraceEvent>> by_key;
    // A journal shared by several back-to-back simulations (one process,
    // many cells) restarts both the round counter and the dispatch seq,
    // so identical trace ids recur. Every RoundStart whose round is not
    // past the previous one marks such a restart; the running `run`
    // index keeps the colliding chains apart.
    std::int32_t run = 0;
    std::int32_t last_round_start = INT32_MIN;
    for (const TraceEvent &e : events) {
        if (e.kind == EventKind::RoundStart) {
            if (last_round_start != INT32_MIN &&
                e.round <= last_round_start)
                ++run;
            last_round_start = e.round;
        }
        if (!chainKind(e.kind))
            continue;
        by_key[TraceKey{run, e.round, e.dispatch, e.client}].push_back(e);
    }
    std::vector<Chain> chains;
    chains.reserve(by_key.size());
    for (auto &entry : by_key) {
        Chain chain;
        chain.key = entry.first;
        chain.events = std::move(entry.second);
        std::sort(chain.events.begin(), chain.events.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      return a.seq < b.seq;
                  });
        chains.push_back(std::move(chain));
    }
    return chains;
}

std::string
formatChain(const Chain &chain)
{
    std::string out = "trace r" + std::to_string(chain.key.round) + ".d" +
                      std::to_string(chain.key.dispatch) + ".c" +
                      std::to_string(chain.key.client);
    if (chain.key.run > 0)
        out += " (run " + std::to_string(chain.key.run + 1) + ")";
    out += " — " + chain.outcome() + "\n";
    for (const TraceEvent &e : chain.events) {
        out += "  ";
        out += e.virtual_ts >= 0.0
                   ? "vt=" + num(e.virtual_ts) + "s"
                   : std::string("vt=–");
        out += " host=" + num(static_cast<double>(e.host_ns) / 1e6) + "ms";
        out += "  ";
        out += eventKindName(e.kind);
        switch (e.kind) {
          case EventKind::Train:
            out += " fraction=" + num(e.value) + " dur=" +
                   num(static_cast<double>(e.dur_ns) / 1e6) + "ms";
            if (e.worker >= 0)
                out += " worker=" + std::to_string(e.worker);
            break;
          case EventKind::Encode:
            out += " codec=" + std::to_string(e.aux) + " bytes=" +
                   std::to_string(e.bytes);
            break;
          case EventKind::UploadRetry:
            out += " attempt=" + std::to_string(e.aux) + " backoff=" +
                   num(e.value) + "s";
            break;
          case EventKind::Arrival:
            if (e.aux >= 0)
                out += " staleness=" + std::to_string(e.aux);
            break;
          case EventKind::Fold:
            out += " scale=" + num(e.value);
            break;
          case EventKind::Buffer:
            out += " fill=" + std::to_string(e.aux);
            break;
          case EventKind::Reject:
            out += std::string(" reason=") + reasonName(e.reason);
            break;
          case EventKind::Dispatch:
            if (e.aux >= 0)
                out += " model_version=" + std::to_string(e.aux);
            break;
          case EventKind::Churn:
            out += " fraction=" + num(e.value);
            break;
          default:
            break;
        }
        out += "\n";
    }
    return out;
}

} // namespace tracing
} // namespace obs
} // namespace fedgpo
