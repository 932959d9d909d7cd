/**
 * @file
 * trace_summarize: offline reporter over a run's output directory
 * (FEDGPO_TRACE_OUT): the JSONL round traces fl::round::openRoundTrace
 * opens there for the campaign runner and the examples, plus the
 * dispatch journal when tracing was on.
 *
 *   trace_summarize <trace_dir> [-o <out_dir>]
 *
 * Reads every *.jsonl file in <trace_dir> (sorted by name), aggregates
 * per-stage host timings, per-client cost/drop statistics, FedGPO
 * decision statistics (exploration rate, chosen-K histogram, reward term
 * means), and fault totals, then writes to <out_dir> (default:
 * <trace_dir>):
 *
 *   stages.csv  — per-stage wall-time stats across all rounds
 *   clients.csv — per-client aggregates (rounds, time, energy, drops)
 *   report.md   — the full markdown report
 *
 * A journal.jsonl in the directory (the causal dispatch journal, written
 * only with FEDGPO_TRACE on) is not treated as a round trace: it feeds a
 * "Dispatches" report section with per-dispatch latency, staleness, and
 * outcome breakdowns instead. A torn final journal line — the normal
 * signature of an aborted run — is skipped with a warning.
 *
 * Unparseable round lines are warned about and skipped. An empty or
 * still-being-written directory is reported gracefully (exit 0); the
 * tool exits non-zero only when files exist but none yields a round.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/tracing/query.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace fs = std::filesystem;
namespace trc = fedgpo::obs::tracing;
using fedgpo::util::JsonValue;
using fedgpo::util::RunningStat;
using fedgpo::util::Table;
using fedgpo::util::fmt;
using fedgpo::util::fmtPct;

namespace {

struct ClientAgg
{
    std::string tier;
    std::size_t rounds = 0;
    std::size_t dropped = 0;
    std::size_t retries = 0;
    RunningStat t_round;
    RunningStat e_total;
    RunningStat train_loss;
    RunningStat arrival_ts; //!< virtual-clock arrival times (arrived only)
};

struct Summary
{
    std::size_t files = 0;
    std::size_t rounds = 0;
    std::size_t bad_lines = 0;
    std::size_t aborted = 0;
    std::size_t upload_retries = 0;

    std::map<std::string, RunningStat> stage_ms; //!< per stage name
    RunningStat accuracy;
    RunningStat round_time;
    RunningStat energy_total;
    /** Per-round spread of virtual-clock arrivals (last minus first). */
    RunningStat arrival_spread;

    std::map<std::size_t, ClientAgg> clients;
    std::map<std::string, std::size_t> faults; //!< per fault kind

    // Asynchrony (event-driven protocols annotate deliveries with a
    // staleness τ and a per-delivery rejection reason).
    /** Raw τ samples per protocol, kept for exact p50/p95 quantiles. */
    std::map<std::string, std::vector<double>> staleness_by_protocol;
    std::map<int, std::size_t> staleness_histogram; //!< τ -> deliveries
    std::map<std::string, std::size_t> rejections;  //!< reason -> count
    std::map<std::string, std::size_t> protocol_rounds;

    // Communication (rounds carrying byte counters; exact int64 sums).
    std::uint64_t bytes_up_total = 0;
    std::uint64_t bytes_down_total = 0;
    std::size_t comm_rounds = 0;
    RunningStat bytes_up_round;   //!< per-round upload bytes
    RunningStat bytes_down_round; //!< per-round download bytes
    RunningStat compression;      //!< per-client upload compression ratio
    std::map<std::string, std::size_t> codec_rounds; //!< rounds per codec

    // FedGPO decision statistics (rounds carrying a `decision` section).
    std::size_t decision_rounds = 0;
    std::size_t k_explored = 0;
    std::size_t device_decisions = 0;
    std::size_t device_explored = 0;
    std::map<int, std::size_t> k_histogram;
    RunningStat reward_total;
    RunningStat reward_energy_global;
    RunningStat reward_energy_local;
    RunningStat reward_accuracy;
    RunningStat reward_improvement;
    RunningStat device_reward_mean;
};

/** Per-dispatch breakdown distilled from a causal journal.jsonl. */
struct DispatchSummary
{
    bool present = false; //!< a journal.jsonl existed and was readable
    std::size_t events = 0;
    std::size_t malformed = 0;
    bool torn = false;
    std::size_t chains = 0;
    std::map<std::string, std::size_t> outcomes;
    RunningStat dispatch_to_arrival; //!< virtual s, per delivered chain
    RunningStat select_to_terminal;  //!< virtual s, per chain
    RunningStat fold_staleness;      //!< τ at fold (async protocols)
};

void
foldJournal(const trc::Journal &journal, DispatchSummary &d)
{
    d.present = true;
    d.events = journal.events.size();
    d.malformed = journal.malformed_lines;
    d.torn = journal.torn_final_line;
    const std::vector<trc::Chain> chains =
        trc::buildChains(journal.events);
    d.chains = chains.size();
    for (const trc::Chain &chain : chains) {
        ++d.outcomes[chain.outcome()];
        double select_vt = -1.0, dispatch_vt = -1.0, arrival_vt = -1.0;
        double terminal_vt = -1.0;
        for (const trc::TraceEvent &e : chain.events) {
            if (e.virtual_ts < 0.0)
                continue;
            terminal_vt = e.virtual_ts;
            if (e.kind == trc::EventKind::Select && select_vt < 0.0)
                select_vt = e.virtual_ts;
            else if (e.kind == trc::EventKind::Dispatch)
                dispatch_vt = e.virtual_ts;
            else if (e.kind == trc::EventKind::Arrival &&
                     arrival_vt < 0.0)
                arrival_vt = e.virtual_ts;
            if (e.kind == trc::EventKind::Fold && e.aux >= 0)
                d.fold_staleness.add(static_cast<double>(e.aux));
        }
        if (dispatch_vt >= 0.0 && arrival_vt >= dispatch_vt)
            d.dispatch_to_arrival.add(arrival_vt - dispatch_vt);
        if (select_vt >= 0.0 && terminal_vt >= select_vt)
            d.select_to_terminal.add(terminal_vt - select_vt);
    }
}

void
foldRound(const JsonValue &line, Summary &s)
{
    ++s.rounds;
    s.accuracy.add(line.at("test_accuracy").asNumber());
    s.round_time.add(line.at("round_time").asNumber());
    s.energy_total.add(line.at("energy_total").asNumber());
    if (line.at("aborted").asBool())
        ++s.aborted;
    s.upload_retries +=
        static_cast<std::size_t>(line.at("upload_retries").asNumber());

    // Host timings are optional: traces written for byte-comparison
    // (JsonlTraceWriter's include_host_timings = false) omit them.
    if (line.has("stages_ms")) {
        const JsonValue &stages = line.at("stages_ms");
        for (const auto &[name, value] : stages.members())
            s.stage_ms[name].add(value.asNumber());
    }

    const JsonValue &faults = line.at("faults");
    for (std::size_t i = 0; i < faults.size(); ++i)
        ++s.faults[faults.at(i).at("kind").asString()];

    if (line.has("bytes_up_total")) {
        ++s.comm_rounds;
        // asInt64 keeps byte counters exact beyond double's 2^53 range.
        const std::int64_t up = line.at("bytes_up_total").asInt64();
        const std::int64_t down = line.at("bytes_down_total").asInt64();
        s.bytes_up_total += static_cast<std::uint64_t>(up);
        s.bytes_down_total += static_cast<std::uint64_t>(down);
        s.bytes_up_round.add(static_cast<double>(up));
        s.bytes_down_round.add(static_cast<double>(down));
        ++s.codec_rounds[line.at("codec").asString()];
    }

    // Protocol stamp ("sync" for traces predating the async protocols).
    const std::string protocol =
        line.has("protocol") ? line.at("protocol").asString() : "sync";
    ++s.protocol_rounds[protocol];

    const JsonValue &clients = line.at("clients");
    double first_arrival = 0.0, last_arrival = 0.0;
    std::size_t arrivals = 0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const JsonValue &c = clients.at(i);
        // Staleness is annotated per delivery; -1 marks records that
        // never reached the aggregator (offline draws, sync traces).
        if (c.has("staleness") && c.at("staleness").asNumber() >= 0.0) {
            const double tau = c.at("staleness").asNumber();
            s.staleness_by_protocol[protocol].push_back(tau);
            ++s.staleness_histogram[static_cast<int>(tau)];
        }
        if (c.has("rejected_reason")) {
            const std::string reason = c.at("rejected_reason").asString();
            if (reason != "none")
                ++s.rejections[reason];
        }
        const auto id =
            static_cast<std::size_t>(c.at("id").asNumber());
        ClientAgg &agg = s.clients[id];
        // Virtual-clock arrival annotation (-1: never arrived).
        if (c.has("arrival_ts") && c.at("arrival_ts").asNumber() >= 0.0) {
            const double ts = c.at("arrival_ts").asNumber();
            agg.arrival_ts.add(ts);
            if (arrivals == 0 || ts < first_arrival)
                first_arrival = ts;
            if (arrivals == 0 || ts > last_arrival)
                last_arrival = ts;
            ++arrivals;
        }
        agg.tier = c.at("tier").asString();
        ++agg.rounds;
        if (c.at("dropped").asBool())
            ++agg.dropped;
        agg.retries +=
            static_cast<std::size_t>(c.at("retries").asNumber());
        if (c.has("compression_ratio") &&
            c.at("compression_ratio").asNumber() > 0.0)
            s.compression.add(c.at("compression_ratio").asNumber());
        agg.t_round.add(c.at("t_round").asNumber());
        agg.e_total.add(c.at("e_total").asNumber());
        agg.train_loss.add(c.at("train_loss").asNumber());
    }
    if (arrivals > 0)
        s.arrival_spread.add(last_arrival - first_arrival);

    if (!line.has("decision"))
        return;
    const JsonValue &d = line.at("decision");
    ++s.decision_rounds;
    const JsonValue &k = d.at("k");
    if (k.at("explored").asBool())
        ++s.k_explored;
    ++s.k_histogram[static_cast<int>(k.at("value").asNumber())];
    const JsonValue &devices = d.at("devices");
    for (std::size_t i = 0; i < devices.size(); ++i) {
        ++s.device_decisions;
        if (devices.at(i).at("explored").asBool())
            ++s.device_explored;
    }
    const JsonValue &reward = d.at("reward");
    s.reward_total.add(reward.at("total").asNumber());
    s.reward_energy_global.add(
        reward.at("energy_global_term").asNumber());
    s.reward_energy_local.add(reward.at("energy_local_term").asNumber());
    s.reward_accuracy.add(reward.at("accuracy_term").asNumber());
    s.reward_improvement.add(reward.at("improvement_term").asNumber());
    s.device_reward_mean.add(d.at("device_reward_mean").asNumber());
}

/** Nearest-rank percentile over an already-sorted, non-empty sample. */
double
percentile(const std::vector<double> &sorted, double p)
{
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

/** Stage rows in pipeline order, then any unknown names. */
std::vector<std::string>
orderedStages(const Summary &s)
{
    static const char *kOrder[] = {"select",    "train",  "encode",
                                   "cost",      "recover", "straggler",
                                   "aggregate", "energy",  "evaluate"};
    std::vector<std::string> out;
    for (const char *name : kOrder)
        if (s.stage_ms.count(name) != 0)
            out.push_back(name);
    for (const auto &[name, stat] : s.stage_ms)
        if (std::find(out.begin(), out.end(), name) == out.end())
            out.push_back(name);
    return out;
}

/**
 * Table data kept raw so the same rows can render three ways: aligned
 * console table, CSV (both via util::Table), and markdown.
 */
struct RawTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    void
    markdown(std::ostream &os) const
    {
        for (const auto &h : header)
            os << "| " << h << " ";
        os << "|\n";
        for (std::size_t i = 0; i < header.size(); ++i)
            os << "| --- ";
        os << "|\n";
        for (const auto &row : rows) {
            for (const auto &cell : row)
                os << "| " << cell << " ";
            os << "|\n";
        }
    }

    Table
    toTable() const
    {
        Table t(header);
        for (const auto &row : rows)
            t.addRow(row);
        return t;
    }
};

RawTable
stageRaw(const Summary &s)
{
    RawTable t;
    t.header = {"stage", "rounds", "total_ms", "mean_ms", "min_ms",
                "max_ms"};
    for (const std::string &name : orderedStages(s)) {
        const RunningStat &st = s.stage_ms.at(name);
        t.rows.push_back({name, std::to_string(st.count()),
                          fmt(st.sum(), 2), fmt(st.mean(), 3),
                          fmt(st.min(), 3), fmt(st.max(), 3)});
    }
    return t;
}

RawTable
clientRaw(const Summary &s)
{
    RawTable t;
    t.header = {"client",         "tier",            "rounds",
                "dropped",        "retries",         "mean_t_round_s",
                "mean_e_total_j", "mean_train_loss", "mean_arrival_s"};
    for (const auto &[id, agg] : s.clients) {
        t.rows.push_back(
            {std::to_string(id), agg.tier, std::to_string(agg.rounds),
             std::to_string(agg.dropped), std::to_string(agg.retries),
             fmt(agg.t_round.mean(), 2), fmt(agg.e_total.mean(), 2),
             fmt(agg.train_loss.mean(), 4),
             agg.arrival_ts.count() > 0 ? fmt(agg.arrival_ts.mean(), 2)
                                        : "-"});
    }
    return t;
}

void
writeDispatchSection(std::ostream &os, const DispatchSummary &d)
{
    os << "\n## Dispatches (causal journal)\n\n";
    os << "- journal events: " << d.events << "\n";
    if (d.malformed > 0)
        os << "- malformed journal lines skipped: " << d.malformed << "\n";
    if (d.torn)
        os << "- torn final journal line skipped (aborted run)\n";
    os << "- dispatch chains: " << d.chains << "\n";
    if (d.dispatch_to_arrival.count() > 0) {
        os << "- dispatch→arrival latency (virtual s, mean/min/max over "
           << d.dispatch_to_arrival.count()
           << " deliveries): " << fmt(d.dispatch_to_arrival.mean(), 2)
           << " / " << fmt(d.dispatch_to_arrival.min(), 2) << " / "
           << fmt(d.dispatch_to_arrival.max(), 2) << "\n";
    }
    if (d.select_to_terminal.count() > 0) {
        os << "- select→terminal latency (virtual s, mean/max): "
           << fmt(d.select_to_terminal.mean(), 2) << " / "
           << fmt(d.select_to_terminal.max(), 2) << "\n";
    }
    if (d.fold_staleness.count() > 0) {
        os << "- staleness at fold (mean/max over "
           << d.fold_staleness.count()
           << " folds): " << fmt(d.fold_staleness.mean(), 2) << " / "
           << fmt(d.fold_staleness.max(), 0) << "\n";
    }
    if (!d.outcomes.empty()) {
        os << "\n### Chain outcomes\n\n";
        RawTable t;
        t.header = {"outcome", "chains"};
        for (const auto &[outcome, n] : d.outcomes)
            t.rows.push_back({outcome, std::to_string(n)});
        t.markdown(os);
    }
}

void
writeReport(std::ostream &os, const Summary &s)
{
    os << "# Trace summary\n\n";
    os << "- files: " << s.files << "\n";
    os << "- rounds: " << s.rounds << "\n";
    if (s.bad_lines > 0)
        os << "- unparseable lines skipped: " << s.bad_lines << "\n";
    os << "- aborted rounds: " << s.aborted << "\n";
    os << "- upload retries: " << s.upload_retries << "\n";
    os << "- final-round test accuracy (mean across rounds "
       << "min/mean/max): " << fmt(s.accuracy.min(), 4) << " / "
       << fmt(s.accuracy.mean(), 4) << " / " << fmt(s.accuracy.max(), 4)
       << "\n";
    os << "- modeled round time (s, mean): " << fmt(s.round_time.mean(), 2)
       << "\n";
    os << "- modeled round energy (J, mean): "
       << fmt(s.energy_total.mean(), 2) << "\n";
    if (s.arrival_spread.count() > 0) {
        os << "- arrival spread (s, last minus first upload, mean/max): "
           << fmt(s.arrival_spread.mean(), 2) << " / "
           << fmt(s.arrival_spread.max(), 2) << "\n";
    }
    os << "\n";

    os << "## Host time per stage\n\n";
    stageRaw(s).markdown(os);

    os << "\n## Clients\n\n";
    clientRaw(s).markdown(os);

    if (s.comm_rounds > 0) {
        os << "\n## Communication\n\n";
        os << "- bytes uploaded (total, exact): " << s.bytes_up_total
           << "\n";
        os << "- bytes downloaded (total, exact): " << s.bytes_down_total
           << "\n";
        os << "- upload bytes per round (mean/min/max): "
           << fmt(s.bytes_up_round.mean(), 0) << " / "
           << fmt(s.bytes_up_round.min(), 0) << " / "
           << fmt(s.bytes_up_round.max(), 0) << "\n";
        os << "- download bytes per round (mean): "
           << fmt(s.bytes_down_round.mean(), 0) << "\n";
        if (s.compression.count() > 0) {
            os << "- upload compression ratio (mean/min/max over "
               << s.compression.count()
               << " uploads): " << fmt(s.compression.mean(), 2) << " / "
               << fmt(s.compression.min(), 2) << " / "
               << fmt(s.compression.max(), 2) << "\n";
        }
        os << "\n### Rounds per codec\n\n";
        RawTable ct;
        ct.header = {"codec", "rounds"};
        for (const auto &[name, n] : s.codec_rounds)
            ct.rows.push_back({name, std::to_string(n)});
        ct.markdown(os);
    }

    if (!s.faults.empty()) {
        os << "\n## Faults\n\n";
        RawTable t;
        t.header = {"kind", "events"};
        for (const auto &[kind, n] : s.faults)
            t.rows.push_back({kind, std::to_string(n)});
        t.markdown(os);
    }

    if (!s.staleness_by_protocol.empty() || !s.rejections.empty()) {
        os << "\n## Staleness\n\n";
        RawTable pt;
        pt.header = {"protocol", "rounds", "deliveries",
                     "p50_tau",  "p95_tau", "max_tau"};
        for (const auto &[protocol, taus] : s.staleness_by_protocol) {
            std::vector<double> sorted = taus;
            std::sort(sorted.begin(), sorted.end());
            const std::size_t rounds =
                s.protocol_rounds.count(protocol) != 0
                    ? s.protocol_rounds.at(protocol)
                    : 0;
            pt.rows.push_back({protocol, std::to_string(rounds),
                               std::to_string(sorted.size()),
                               fmt(percentile(sorted, 0.50), 1),
                               fmt(percentile(sorted, 0.95), 1),
                               fmt(sorted.back(), 0)});
        }
        pt.markdown(os);

        if (!s.staleness_histogram.empty()) {
            os << "\n### Staleness histogram (all protocols)\n\n";
            RawTable ht;
            ht.header = {"tau", "deliveries"};
            for (const auto &[tau, n] : s.staleness_histogram)
                ht.rows.push_back(
                    {std::to_string(tau), std::to_string(n)});
            ht.markdown(os);
        }

        if (!s.rejections.empty()) {
            os << "\n### Rejected deliveries\n\n";
            RawTable rt;
            rt.header = {"reason", "deliveries"};
            for (const auto &[reason, n] : s.rejections)
                rt.rows.push_back({reason, std::to_string(n)});
            rt.markdown(os);
        }
    }

    if (s.decision_rounds > 0) {
        os << "\n## FedGPO decisions\n\n";
        os << "- rounds with a decision record: " << s.decision_rounds
           << "\n";
        os << "- K exploration rate: "
           << fmtPct(static_cast<double>(s.k_explored) /
                     static_cast<double>(s.decision_rounds))
           << "\n";
        if (s.device_decisions > 0) {
            os << "- device (B,E) exploration rate: "
               << fmtPct(static_cast<double>(s.device_explored) /
                         static_cast<double>(s.device_decisions))
               << " over " << s.device_decisions << " decisions\n";
        }
        os << "\n### Chosen K\n\n";
        RawTable kt;
        kt.header = {"K", "rounds"};
        for (const auto &[k, n] : s.k_histogram)
            kt.rows.push_back({std::to_string(k), std::to_string(n)});
        kt.markdown(os);

        os << "\n### Reward terms (mean per round)\n\n";
        RawTable rt;
        rt.header = {"term", "mean"};
        rt.rows.push_back({"total", fmt(s.reward_total.mean(), 3)});
        rt.rows.push_back(
            {"energy_global", fmt(s.reward_energy_global.mean(), 3)});
        rt.rows.push_back(
            {"energy_local", fmt(s.reward_energy_local.mean(), 3)});
        rt.rows.push_back({"accuracy", fmt(s.reward_accuracy.mean(), 3)});
        rt.rows.push_back(
            {"improvement", fmt(s.reward_improvement.mean(), 3)});
        rt.rows.push_back(
            {"device_reward_mean", fmt(s.device_reward_mean.mean(), 3)});
        rt.markdown(os);
    }
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " <trace_dir> [-o <out_dir>]\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_dir;
    std::string out_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o") {
            if (i + 1 >= argc)
                return usage(argv[0]);
            out_dir = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (trace_dir.empty()) {
            trace_dir = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (trace_dir.empty())
        return usage(argv[0]);
    if (out_dir.empty())
        out_dir = trace_dir;

    std::error_code ec;
    if (!fs::is_directory(trace_dir, ec)) {
        std::cerr << "trace_summarize: '" << trace_dir
                  << "' is not a directory\n";
        return 1;
    }
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(trace_dir, ec)) {
        // journal.jsonl is the causal dispatch journal, a different
        // schema from the per-round traces; it feeds its own section.
        if (entry.is_regular_file() &&
            entry.path().extension() == ".jsonl" &&
            entry.path().filename() != "journal.jsonl")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());

    DispatchSummary dispatches;
    const fs::path journal_path = fs::path(trace_dir) / "journal.jsonl";
    if (fs::is_regular_file(journal_path, ec)) {
        trc::Journal journal;
        std::string error;
        if (!trc::readJournal(journal_path.string(), journal, &error)) {
            std::cerr << "trace_summarize: " << error << "; skipping the "
                      << "dispatch journal\n";
        } else {
            if (journal.torn_final_line)
                std::cerr << "trace_summarize: warning: final line of "
                          << journal_path
                          << " is torn (aborted run?); it was skipped\n";
            if (journal.malformed_lines > 0)
                std::cerr << "trace_summarize: warning: skipped "
                          << journal.malformed_lines
                          << " malformed journal line(s)\n";
            foldJournal(journal, dispatches);
        }
    }

    if (files.empty() && !dispatches.present) {
        // An empty directory usually means the run has not started (or
        // not flushed) yet — not an error worth failing a pipeline over.
        std::cout << "trace_summarize: nothing to summarize in '"
                  << trace_dir
                  << "' (no *.jsonl trace files yet — empty or "
                     "still-being-written directory)\n";
        return 0;
    }

    Summary summary;
    for (const fs::path &file : files) {
        std::ifstream in(file);
        if (!in.good()) {
            std::cerr << "trace_summarize: cannot read " << file
                      << "; skipping\n";
            continue;
        }
        ++summary.files;
        std::string line;
        std::size_t line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            if (line.empty())
                continue;
            JsonValue parsed;
            std::string error;
            if (!JsonValue::parse(line, parsed, &error) ||
                !parsed.isObject()) {
                ++summary.bad_lines;
                std::cerr << "trace_summarize: " << file.filename()
                          << ":" << line_no << ": skipping bad line ("
                          << error << ")\n";
                continue;
            }
            foldRound(parsed, summary);
        }
    }
    if (summary.rounds == 0 && !dispatches.present) {
        std::cerr << "trace_summarize: no parseable rounds in '"
                  << trace_dir << "'\n";
        return 1;
    }

    fs::create_directories(out_dir, ec);

    const std::string stages_csv = out_dir + "/stages.csv";
    const std::string clients_csv = out_dir + "/clients.csv";
    const std::string report_md = out_dir + "/report.md";
    bool ok = true;
    if (summary.rounds > 0) {
        ok &= stageRaw(summary).toTable().writeCsv(stages_csv);
        ok &= clientRaw(summary).toTable().writeCsv(clients_csv);
    }
    {
        std::ofstream report(report_md, std::ios::trunc);
        if (!report.good()) {
            std::cerr << "trace_summarize: cannot write " << report_md
                      << "\n";
            ok = false;
        } else {
            if (summary.rounds > 0)
                writeReport(report, summary);
            else
                report << "# Trace summary\n\n- rounds: 0 (dispatch "
                          "journal only)\n";
            if (dispatches.present)
                writeDispatchSection(report, dispatches);
        }
    }

    std::cout << "trace_summarize: " << summary.rounds << " rounds from "
              << summary.files << " file(s)";
    if (dispatches.present)
        std::cout << " + " << dispatches.chains << " dispatch chain(s)";
    std::cout << " -> " << report_md << "\n";
    if (summary.rounds > 0)
        stageRaw(summary).toTable().print(std::cout,
                                          "Host time per stage");
    return ok ? 0 : 1;
}
