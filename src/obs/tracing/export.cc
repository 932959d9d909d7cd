#include "obs/tracing/export.h"

#include <fstream>
#include <map>
#include <set>

#include "util/json.h"

namespace fedgpo {
namespace obs {
namespace tracing {

// Non-finite values become null, which the Perfetto UI accepts too.
using util::jsonNumber;

std::string
journalLine(const TraceEvent &e)
{
    std::string line = "{\"k\":\"";
    line += eventKindName(e.kind);
    line += "\",\"round\":" + std::to_string(e.round);
    line += ",\"d\":" + std::to_string(e.dispatch);
    line += ",\"c\":" + std::to_string(e.client);
    line += ",\"seq\":" + std::to_string(e.seq);
    line += ",\"host_ns\":" + std::to_string(e.host_ns);
    if (e.virtual_ts >= 0.0)
        line += ",\"vt\":" + jsonNumber(e.virtual_ts);
    if (e.value != 0.0)
        line += ",\"v\":" + jsonNumber(e.value);
    if (e.bytes != 0)
        line += ",\"bytes\":" + std::to_string(e.bytes);
    if (e.aux != -1)
        line += ",\"aux\":" + std::to_string(e.aux);
    if (e.dur_ns != 0)
        line += ",\"dur_ns\":" + std::to_string(e.dur_ns);
    if (e.worker >= 0)
        line += ",\"worker\":" + std::to_string(e.worker);
    if (e.reason != Reason::None) {
        line += ",\"reason\":\"";
        line += reasonName(e.reason);
        line += "\"";
    }
    line += "}";
    return line;
}

void
appendJournal(std::ostream &out, const std::vector<TraceEvent> &events)
{
    for (const TraceEvent &event : events)
        out << journalLine(event) << '\n';
}

bool
eventKindFromName(const std::string &name, EventKind &out)
{
    for (int k = 0; k <= static_cast<int>(EventKind::StageSpan); ++k) {
        const auto kind = static_cast<EventKind>(k);
        if (name == eventKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
reasonFromName(const std::string &name, Reason &out)
{
    for (int r = 0; r <= static_cast<int>(Reason::Quorum); ++r) {
        const auto reason = static_cast<Reason>(r);
        if (name == reasonName(reason)) {
            out = reason;
            return true;
        }
    }
    return false;
}

bool
parseJournalLine(const std::string &line, TraceEvent &out)
{
    util::JsonValue doc;
    if (!util::JsonValue::parse(line, doc) || !doc.isObject())
        return false;
    const util::JsonValue &kind = doc.at("k");
    if (!kind.isString() || !eventKindFromName(kind.asString(), out.kind))
        return false;
    out.reason = Reason::None;
    if (doc.has("reason")) {
        if (!reasonFromName(doc.at("reason").asString(), out.reason))
            return false;
    }
    out.round = doc.has("round")
                    ? static_cast<std::int32_t>(doc.at("round").asInt64())
                    : -1;
    out.dispatch = doc.has("d")
                       ? static_cast<std::uint64_t>(doc.at("d").asInt64())
                       : 0;
    out.client = doc.has("c")
                     ? static_cast<std::uint64_t>(doc.at("c").asInt64())
                     : 0;
    out.seq = doc.has("seq")
                  ? static_cast<std::uint64_t>(doc.at("seq").asInt64())
                  : 0;
    out.host_ns =
        doc.has("host_ns")
            ? static_cast<std::uint64_t>(doc.at("host_ns").asInt64())
            : 0;
    out.virtual_ts = doc.has("vt") ? doc.at("vt").asNumber() : -1.0;
    out.value = doc.has("v") ? doc.at("v").asNumber() : 0.0;
    out.bytes = doc.has("bytes")
                    ? static_cast<std::uint64_t>(doc.at("bytes").asInt64())
                    : 0;
    out.aux = doc.has("aux") ? doc.at("aux").asInt64() : -1;
    out.dur_ns = doc.has("dur_ns")
                     ? static_cast<std::uint64_t>(doc.at("dur_ns").asInt64())
                     : 0;
    out.worker = doc.has("worker")
                     ? static_cast<std::int32_t>(doc.at("worker").asInt64())
                     : -1;
    return true;
}

// ---- Chrome trace-event JSON. --------------------------------------------

namespace {

/** pid 1 = the modeled virtual-time axis, pid 2 = host wall time. */
constexpr int kVirtualPid = 1;
constexpr int kHostPid = 2;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
writeMeta(std::ostream &out, int pid, std::int64_t tid, const char *what,
          const std::string &name, bool &first)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
        << jsonEscape(name) << "\"}}";
}

/** The flow id tying dispatch → arrival → fold for one trace id. */
std::string
flowId(const TraceEvent &e)
{
    // Appended piece by piece: GCC 12 reports a false -Wrestrict overlap
    // where operator+(const char *, std::string &&) inlines here.
    std::string id = "r";
    id += std::to_string(e.round);
    id += ".d";
    id += std::to_string(e.dispatch);
    id += ".c";
    id += std::to_string(e.client);
    return id;
}

std::string
eventArgs(const TraceEvent &e)
{
    std::string args = "{\"round\":" + std::to_string(e.round) +
                       ",\"dispatch\":" + std::to_string(e.dispatch) +
                       ",\"client\":" + std::to_string(e.client);
    if (e.value != 0.0)
        args += ",\"value\":" + jsonNumber(e.value);
    if (e.bytes != 0)
        args += ",\"bytes\":" + std::to_string(e.bytes);
    if (e.aux != -1)
        args += ",\"aux\":" + std::to_string(e.aux);
    if (e.reason != Reason::None) {
        args += ",\"reason\":\"";
        args += reasonName(e.reason);
        args += "\"";
    }
    args += "}";
    return args;
}

/** Server-track events: round scoped, not tied to one client's lane. */
bool
serverTrack(EventKind kind)
{
    return kind == EventKind::RoundStart || kind == EventKind::RoundEnd ||
           kind == EventKind::Flush || kind == EventKind::StageSpan;
}

bool
flowStart(EventKind kind)
{
    return kind == EventKind::Dispatch;
}

bool
flowStep(EventKind kind)
{
    return kind == EventKind::Arrival;
}

bool
flowEnd(EventKind kind)
{
    return kind == EventKind::Fold || kind == EventKind::Buffer ||
           kind == EventKind::Reject || kind == EventKind::Churn;
}

} // namespace

bool
writeChromeTrace(const std::string &path,
                 const std::vector<TraceEvent> &events)
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out.good())
        return false;

    std::set<std::uint64_t> clients;
    std::set<std::int32_t> workers;
    for (const TraceEvent &e : events) {
        if (!serverTrack(e.kind))
            clients.insert(e.client);
        if (e.worker >= 0)
            workers.insert(e.worker);
    }

    out << "{\"traceEvents\":[\n";
    bool first = true;
    writeMeta(out, kVirtualPid, 0, "process_name", "virtual time", first);
    writeMeta(out, kVirtualPid, 0, "thread_name", "server", first);
    for (std::uint64_t c : clients)
        writeMeta(out, kVirtualPid, static_cast<std::int64_t>(c) + 1,
                  "thread_name", "client " + std::to_string(c), first);
    writeMeta(out, kHostPid, 0, "process_name", "host time", first);
    writeMeta(out, kHostPid, 1, "thread_name", "main", first);
    for (std::int32_t w : workers)
        writeMeta(out, kHostPid, w + 2, "thread_name",
                  "worker " + std::to_string(w), first);

    for (const TraceEvent &e : events) {
        const std::string args = eventArgs(e);
        const char *name = eventKindName(e.kind);

        // Host-span kinds render as complete events on the host axis.
        if (e.kind == EventKind::Train || e.kind == EventKind::StageSpan) {
            const std::uint64_t end_us = e.host_ns / 1000;
            const std::uint64_t dur_us = e.dur_ns / 1000;
            const std::uint64_t start_us = end_us > dur_us ? end_us - dur_us : 0;
            const std::int64_t tid =
                e.kind == EventKind::StageSpan || e.worker < 0 ? 1
                                                               : e.worker + 2;
            out << ",\n{\"ph\":\"X\",\"pid\":" << kHostPid << ",\"tid\":" << tid
                << ",\"ts\":" << start_us << ",\"dur\":" << dur_us
                << ",\"name\":\"" << name << "\",\"cat\":\"host\",\"args\":"
                << args << "}";
            if (e.kind == EventKind::StageSpan)
                continue;
        }

        // Everything with a modeled timestamp lands on the virtual axis.
        if (e.virtual_ts >= 0.0) {
            const std::int64_t tid =
                serverTrack(e.kind) ? 0 : static_cast<std::int64_t>(e.client) + 1;
            const std::string ts = jsonNumber(e.virtual_ts * 1e6);
            out << ",\n{\"ph\":\"i\",\"pid\":" << kVirtualPid
                << ",\"tid\":" << tid << ",\"ts\":" << ts << ",\"s\":\"t\""
                << ",\"name\":\"" << name << "\",\"cat\":\"dispatch\",\"args\":"
                << args << "}";
            if (flowStart(e.kind) || flowStep(e.kind) || flowEnd(e.kind)) {
                const char *ph = flowStart(e.kind) ? "s"
                                 : flowStep(e.kind) ? "t"
                                                    : "f";
                out << ",\n{\"ph\":\"" << ph << "\",\"pid\":" << kVirtualPid
                    << ",\"tid\":" << tid << ",\"ts\":" << ts
                    << ",\"name\":\"dispatch\",\"cat\":\"dispatch\",\"id\":\""
                    << flowId(e) << "\"";
                if (ph[0] == 'f')
                    out << ",\"bp\":\"e\"";
                out << "}";
            }
        }
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out.good();
}

} // namespace tracing
} // namespace obs
} // namespace fedgpo
