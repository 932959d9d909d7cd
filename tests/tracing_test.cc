/**
 * @file
 * Tests of the causal dispatch tracer (src/obs/tracing/): mode gating,
 * SPSC-ring concurrency (run under TSan in CI), the journal and Chrome
 * trace-event exports round-tripped through util::JsonValue, trace-id
 * stability across churn / reconnects / LRU eviction, and the
 * off-vs-full inertness of the event-driven protocols (the synchronous
 * pipeline's inertness is asserted against hexfloat goldens in
 * round_golden_test.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.h"
#include "fl/simulator.h"
#include "obs/tracing/export.h"
#include "obs/tracing/query.h"
#include "obs/tracing/trace.h"
#include "util/json.h"

using namespace fedgpo;
namespace trc = fedgpo::obs::tracing;
namespace fs = std::filesystem;

namespace {

/** Fresh per-test scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("fedgpo_tracing_test_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

// ---- Mode gating. ------------------------------------------------------

TEST(TracingMode, SetModeAndEnabledTiers)
{
    trc::ScopedMode off(trc::Mode::Off);
    EXPECT_FALSE(trc::enabled());

    trc::setMode(trc::Mode::Full);
    EXPECT_TRUE(trc::enabled());

    trc::setMode(trc::Mode::Off);
    EXPECT_FALSE(trc::enabled());
}

TEST(TracingMode, ScopedModeRestoresPrevious)
{
    trc::ScopedMode outer(trc::Mode::Off);
    {
        trc::ScopedMode inner(trc::Mode::Full);
        EXPECT_EQ(trc::mode(), trc::Mode::Full);
    }
    EXPECT_EQ(trc::mode(), trc::Mode::Off);
}

TEST(TracingMode, OffRecordsNothingThroughTracer)
{
    trc::ScopedMode off(trc::Mode::Off);
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    // Emitters gate on enabled() — the pattern every call site uses.
    if (trc::enabled()) {
        trc::TraceEvent e;
        tracer.record(e);
    }
    std::vector<trc::TraceEvent> out;
    EXPECT_EQ(tracer.drain(out), 0u);
    EXPECT_TRUE(out.empty());
}

// ---- Ring concurrency (TSan hunts races here in CI). -------------------

TEST(TracingRing, ConcurrentProducersAndDrainLoseNothing)
{
    trc::ScopedMode full(trc::Mode::Full);
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    const std::uint64_t dropped_before = tracer.droppedEvents();

    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 50000;

    std::atomic<bool> start{false};
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t]() {
            while (!start.load(std::memory_order_acquire))
                std::this_thread::yield();
            trc::TraceEvent e;
            e.kind = trc::EventKind::Train;
            e.worker = static_cast<std::int32_t>(t);
            e.client = t;
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                e.dispatch = i;
                trc::Tracer::instance().record(e);
            }
            done.fetch_add(1, std::memory_order_release);
        });
    }

    // Drain concurrently with the producers — the exact overlap the
    // mid-round drain creates against pool workers.
    std::vector<trc::TraceEvent> sink;
    std::uint64_t drained = 0;
    start.store(true, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < kThreads ||
           drained < tracer.recordedEvents()) {
        sink.clear();
        drained += tracer.drain(sink);
        for (const trc::TraceEvent &e : sink) {
            ASSERT_EQ(e.kind, trc::EventKind::Train);
            ASSERT_LT(e.client, kThreads);
            ASSERT_LT(e.dispatch, kPerThread);
        }
    }
    for (std::thread &p : producers)
        p.join();
    sink.clear();
    drained += tracer.drain(sink);

    // Accounting closes: every attempted record was either accepted
    // (and later drained) or counted as an overflow drop.
    const std::uint64_t dropped =
        tracer.droppedEvents() - dropped_before;
    EXPECT_EQ(drained, tracer.recordedEvents());
    EXPECT_EQ(drained + dropped, kThreads * kPerThread);
    tracer.reset();
}

TEST(TracingRing, OverflowDropsAreCountedNotBlocking)
{
    trc::ScopedMode full(trc::Mode::Full);
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    const std::uint64_t dropped_before = tracer.droppedEvents();

    // Overfill this thread's ring without draining: the excess must be
    // dropped and counted, never block.
    const std::uint64_t total = trc::Tracer::kRingCapacity + 1000;
    trc::TraceEvent e;
    e.kind = trc::EventKind::Select;
    for (std::uint64_t i = 0; i < total; ++i)
        tracer.record(e);

    EXPECT_GE(tracer.droppedEvents() - dropped_before, 1000u);
    std::vector<trc::TraceEvent> out;
    const std::size_t drained = tracer.drain(out);
    EXPECT_EQ(drained + (tracer.droppedEvents() - dropped_before), total);
    tracer.reset();
}

// ---- Journal wire format round-trip. -----------------------------------

TEST(TracingExport, JournalLineRoundTripsEveryField)
{
    trc::TraceEvent e;
    e.kind = trc::EventKind::Encode;
    e.reason = trc::Reason::Stale;
    e.worker = 3;
    e.round = 7;
    e.dispatch = 41;
    e.client = 12345;
    e.virtual_ts = 17.25;
    e.value = 0.375;
    e.bytes = 9999999999ull; // beyond 2^32: exercises exact int64 paths
    e.aux = 6;
    e.host_ns = 123456789;
    e.dur_ns = 424242;
    e.seq = 77;

    trc::TraceEvent back;
    ASSERT_TRUE(trc::parseJournalLine(trc::journalLine(e), back));
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.reason, e.reason);
    EXPECT_EQ(back.worker, e.worker);
    EXPECT_EQ(back.round, e.round);
    EXPECT_EQ(back.dispatch, e.dispatch);
    EXPECT_EQ(back.client, e.client);
    EXPECT_EQ(back.virtual_ts, e.virtual_ts);
    EXPECT_EQ(back.value, e.value);
    EXPECT_EQ(back.bytes, e.bytes);
    EXPECT_EQ(back.aux, e.aux);
    EXPECT_EQ(back.host_ns, e.host_ns);
    EXPECT_EQ(back.dur_ns, e.dur_ns);
    EXPECT_EQ(back.seq, e.seq);
}

TEST(TracingExport, JournalLineOmitsDefaultsButRestoresThem)
{
    trc::TraceEvent e; // all-default payload fields
    e.kind = trc::EventKind::RoundStart;
    e.round = 1;
    e.seq = 5;
    e.host_ns = 42;

    const std::string line = trc::journalLine(e);
    // Defaulted optional keys must not bloat the journal...
    EXPECT_EQ(line.find("\"reason\""), std::string::npos);
    EXPECT_EQ(line.find("\"dur_ns\""), std::string::npos);

    // ...and must restore to defaults on parse.
    trc::TraceEvent back;
    ASSERT_TRUE(trc::parseJournalLine(line, back));
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.reason, trc::Reason::None);
    EXPECT_EQ(back.worker, -1);
    EXPECT_EQ(back.virtual_ts, -1.0);
    EXPECT_EQ(back.value, 0.0);
    EXPECT_EQ(back.bytes, 0u);
    EXPECT_EQ(back.aux, -1);
    EXPECT_EQ(back.dur_ns, 0u);
}

TEST(TracingExport, KindAndReasonNamesRoundTrip)
{
    for (int k = 0; k <= static_cast<int>(trc::EventKind::StageSpan); ++k) {
        const auto kind = static_cast<trc::EventKind>(k);
        trc::EventKind back;
        ASSERT_TRUE(trc::eventKindFromName(trc::eventKindName(kind), back));
        EXPECT_EQ(back, kind);
    }
    for (int r = 0; r <= static_cast<int>(trc::Reason::Quorum); ++r) {
        const auto reason = static_cast<trc::Reason>(r);
        trc::Reason back;
        ASSERT_TRUE(trc::reasonFromName(trc::reasonName(reason), back));
        EXPECT_EQ(back, reason);
    }
    trc::EventKind kind_sink;
    trc::Reason reason_sink;
    EXPECT_FALSE(trc::eventKindFromName("no_such_kind", kind_sink));
    EXPECT_FALSE(trc::reasonFromName("no_such_reason", reason_sink));
}

TEST(TracingExport, ParseRejectsMalformedLines)
{
    trc::TraceEvent sink;
    EXPECT_FALSE(trc::parseJournalLine("{\"k\":\"fold\",\"round", sink));
    EXPECT_FALSE(trc::parseJournalLine("{\"k\":\"bogus_kind\"}", sink));
    EXPECT_FALSE(trc::parseJournalLine("[1,2,3]", sink));
}

// ---- Chrome trace-event (Perfetto) export. -----------------------------

TEST(TracingExport, ChromeTraceParsesAndLinksFlows)
{
    const fs::path dir = scratchDir("chrome");

    // A complete dispatch lifecycle plus round bookends and a host span.
    std::vector<trc::TraceEvent> events;
    auto push = [&](trc::EventKind kind, std::int32_t round,
                    std::uint64_t d, std::uint64_t c, double vt) {
        trc::TraceEvent e;
        e.kind = kind;
        e.round = round;
        e.dispatch = d;
        e.client = c;
        e.virtual_ts = vt;
        e.seq = events.size();
        e.host_ns = 1000 * (events.size() + 1);
        events.push_back(e);
    };
    push(trc::EventKind::RoundStart, 1, 0, 0, 0.0);
    push(trc::EventKind::Select, 1, 0, 3, 0.0);
    push(trc::EventKind::Dispatch, 1, 0, 3, 0.0);
    push(trc::EventKind::Train, 1, 0, 3, -1.0);
    events.back().worker = 0;
    events.back().dur_ns = 5000;
    push(trc::EventKind::Arrival, 1, 0, 3, 4.5);
    push(trc::EventKind::Fold, 1, 0, 3, 4.5);
    push(trc::EventKind::StageSpan, 1, 0, 0, -1.0);
    events.back().dur_ns = 2000;
    push(trc::EventKind::RoundEnd, 1, 0, 0, 6.0);

    const std::string path = (dir / "perfetto.json").string();
    ASSERT_TRUE(trc::writeChromeTrace(path, events));

    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::JsonValue::parse(slurp(path), doc, &error)) << error;
    ASSERT_TRUE(doc.has("traceEvents"));
    const util::JsonValue &entries = doc.at("traceEvents");
    ASSERT_TRUE(entries.isArray());
    ASSERT_GT(entries.size(), 0u);

    std::set<std::int64_t> pids;
    std::set<std::string> phases;
    std::set<std::string> flow_ids;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const util::JsonValue &entry = entries.at(i);
        ASSERT_TRUE(entry.isObject());
        ASSERT_TRUE(entry.has("ph"));
        const std::string ph = entry.at("ph").asString();
        phases.insert(ph);
        if (entry.has("pid"))
            pids.insert(entry.at("pid").asInt64());
        if (ph == "s" || ph == "t" || ph == "f")
            flow_ids.insert(entry.at("id").asString());
    }
    // Both clock axes are present as processes.
    EXPECT_TRUE(pids.count(1)) << "virtual-time process missing";
    EXPECT_TRUE(pids.count(2)) << "host-time process missing";
    // Instants, complete spans, and a closed flow chain for the trace id.
    EXPECT_TRUE(phases.count("i"));
    EXPECT_TRUE(phases.count("X"));
    EXPECT_TRUE(phases.count("s"));
    EXPECT_TRUE(phases.count("f"));
    EXPECT_TRUE(flow_ids.count("r1.d0.c3"));

    fs::remove_all(dir);
}

// ---- End-to-end: trace-id stability across churn / eviction. -----------

namespace {

fl::FlConfig
faultyAsyncConfig(std::size_t threads)
{
    fl::FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 24;
    config.train_samples = 96;
    config.test_samples = 16;
    config.seed = 19;
    config.interference = true;
    config.network_unstable = true;
    config.threads = threads;
    config.protocol.mode = fl::ProtocolMode::Async;
    config.faults.offline_rate = 0.1;
    config.faults.churn_rate = 0.2;
    config.faults.duplicate_rate = 0.1;
    config.faults.upload_failure_rate = 0.1;
    config.fleet.lru_cap = 6; // far below n_devices: forces evictions
    // TopK banks sticky error-feedback residuals, so evictions have
    // something to bank and re-acquisitions something to rehydrate.
    config.comm.codec = comm::Codec::TopK;
    config.comm.topk_fraction = 0.25;
    return config;
}

} // namespace

TEST(TracingEndToEnd, EveryCampaignOfAProcessReachesTheJournal)
{
    // exp::runCampaignFixed calls obs::finishRun() after each campaign.
    // That drains into the open session and leaves it open, so the
    // second campaign journals too; perfetto.json waits for finish().
    const fs::path dir = scratchDir("two_campaigns");
    trc::ScopedMode full(trc::Mode::Full);
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    ASSERT_TRUE(tracer.openSession(dir.string()));

    exp::Scenario scenario;
    scenario.n_devices = 8;
    scenario.train_samples = 96;
    scenario.test_samples = 32;
    scenario.seed = 5;
    for (int run = 0; run < 2; ++run)
        exp::runCampaignFixed(scenario, fl::GlobalParams{4, 1, 4}, 3);
    EXPECT_TRUE(tracer.sessionOpen());
    EXPECT_FALSE(fs::exists(dir / "perfetto.json"));
    tracer.finish();
    EXPECT_TRUE(fs::exists(dir / "perfetto.json"));

    trc::Journal journal;
    std::string error;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 &error))
        << error;
    std::vector<int> starts;
    for (const trc::TraceEvent &e : journal.events)
        if (e.kind == trc::EventKind::RoundStart)
            starts.push_back(e.round);
    EXPECT_EQ(starts, (std::vector<int>{1, 2, 3, 1, 2, 3}));
    tracer.reset();
}

TEST(TracingEndToEnd, TraceIdsSurviveChurnReconnectAndEviction)
{
    const fs::path dir = scratchDir("stability");
    trc::ScopedMode full(trc::Mode::Full);
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    ASSERT_TRUE(tracer.openSession(dir.string()));

    {
        fl::FlSimulator sim(faultyAsyncConfig(1));
        for (int r = 0; r < 6; ++r)
            sim.runRoundWithParams(fl::GlobalParams{4, 1, 8});
    }
    tracer.finish();

    trc::Journal journal;
    std::string error;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 &error))
        << error;
    EXPECT_FALSE(journal.torn_final_line);
    EXPECT_EQ(journal.malformed_lines, 0u);
    ASSERT_GT(journal.events.size(), 0u);

    // The fault processes and the tiny LRU cap must all have fired —
    // otherwise this test is not exercising what it claims to.
    std::set<trc::EventKind> kinds;
    for (const trc::TraceEvent &e : journal.events)
        kinds.insert(e.kind);
    EXPECT_TRUE(kinds.count(trc::EventKind::Churn));
    EXPECT_TRUE(kinds.count(trc::EventKind::Reconnect));
    EXPECT_TRUE(kinds.count(trc::EventKind::Evict));
    EXPECT_TRUE(kinds.count(trc::EventKind::Rehydrate));
    EXPECT_TRUE(kinds.count(trc::EventKind::Fold));

    const std::vector<trc::Chain> chains =
        trc::buildChains(journal.events);
    ASSERT_GT(chains.size(), 0u);

    std::set<trc::TraceKey> seen;
    std::size_t folded = 0;
    std::size_t churned = 0;
    for (const trc::Chain &chain : chains) {
        // Trace ids are unique and every chain is a coherent lifecycle:
        // it begins at selection and every event re-stamps the same id.
        EXPECT_TRUE(seen.insert(chain.key).second)
            << "duplicate trace id r" << chain.key.round << ".d"
            << chain.key.dispatch << ".c" << chain.key.client;
        ASSERT_FALSE(chain.events.empty());
        EXPECT_EQ(chain.events.front().kind, trc::EventKind::Select);
        for (const trc::TraceEvent &e : chain.events) {
            EXPECT_EQ(e.round, chain.key.round);
            EXPECT_EQ(e.dispatch, chain.key.dispatch);
            EXPECT_EQ(e.client, chain.key.client);
        }
        if (chain.folded())
            ++folded;
        if (chain.outcome() == "lost to churn")
            ++churned;
    }
    EXPECT_GT(folded, 0u);
    EXPECT_GT(churned, 0u);

    tracer.reset();
    fs::remove_all(dir);
}

TEST(TracingEndToEnd, SyncChainsEndInTheirReportsOutcome)
{
    // Every cohort slot of a faulty synchronous round reaches exactly one
    // terminal journal event, and it agrees with the slot's report: the
    // drop reason for a dropped update, the quorum for a kept one in an
    // aborted round, a fold otherwise.
    const fs::path dir = scratchDir("sync_outcomes");
    trc::ScopedMode full(trc::Mode::Full);
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    ASSERT_TRUE(tracer.openSession(dir.string()));

    fl::FlConfig config;
    config.n_devices = 12;
    config.train_samples = 144;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;
    config.network_unstable = true;
    config.deadline_factor = 1.2;
    config.faults.offline_rate = 0.15;
    config.faults.crash_rate = 0.15;
    config.faults.upload_failure_rate = 0.4;
    config.faults.quorum_fraction = 0.6;
    std::vector<fl::RoundResult> results;
    {
        fl::FlSimulator sim(config);
        for (int r = 0; r < 6; ++r)
            results.push_back(
                sim.runRoundWithParams(fl::GlobalParams{4, 1, 8}));
    }
    tracer.finish();

    trc::Journal journal;
    std::string error;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 &error))
        << error;
    const std::vector<trc::Chain> chains = trc::buildChains(journal.events);

    std::size_t slots = 0;
    for (const fl::RoundResult &result : results)
        slots += result.participants.size();
    EXPECT_EQ(chains.size(), slots);

    std::set<std::string> outcomes;
    for (const trc::Chain &chain : chains) {
        ASSERT_GE(chain.key.round, 1);
        ASSERT_LE(static_cast<std::size_t>(chain.key.round), results.size());
        const fl::RoundResult &result = results[chain.key.round - 1];
        ASSERT_EQ(result.round, chain.key.round);
        ASSERT_LT(chain.key.dispatch, result.participants.size());
        const fl::ClientRoundReport &p =
            result.participants[chain.key.dispatch];
        EXPECT_EQ(p.client_id, chain.key.client);
        const std::string expected =
            p.dropped ? std::string("rejected (") +
                            fl::dropReasonName(p.drop_reason) + ")"
            : result.aborted ? std::string("rejected (quorum)")
                             : std::string("folded");
        EXPECT_EQ(chain.outcome(), expected)
            << "r" << chain.key.round << ".d" << chain.key.dispatch;
        outcomes.insert(chain.outcome());
    }
    for (const char *outcome :
         {"folded", "rejected (quorum)", "rejected (straggler)",
          "rejected (offline)", "rejected (crashed)",
          "rejected (upload_failed)"})
        EXPECT_TRUE(outcomes.count(outcome)) << outcome;

    tracer.reset();
    fs::remove_all(dir);
}

namespace {

/** The journal events that end a dispatch (what Chain::outcome reads). */
bool
terminalKind(trc::EventKind kind)
{
    return kind == trc::EventKind::Fold || kind == trc::EventKind::Reject ||
           kind == trc::EventKind::Churn;
}

} // namespace

TEST(TracingEndToEnd, PumpDispatchesEndAtMostOnce)
{
    // The event pump's conservation law under churn, duplicate, offline
    // and upload faults. A fully traced Async or Buffered campaign drops
    // no journal event, journals every dispatch as one chain, and a chain
    // holds at most one terminal event; the one exception is a duplicate
    // delivery's Reject, which follows the update's Fold (Async) or Buffer
    // (Buffered). A chain with no terminal is still in flight, or parked
    // in the buffer, when the campaign ends.
    constexpr std::size_t kCohort = 8;
    constexpr int kBuffer = 3;
    for (fl::ProtocolMode mode :
         {fl::ProtocolMode::Async, fl::ProtocolMode::Buffered}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string(fl::protocolModeName(mode)) +
                         " threads=" + std::to_string(threads));
            const fs::path dir = scratchDir("pump_conservation");
            trc::ScopedMode full(trc::Mode::Full);
            trc::Tracer &tracer = trc::Tracer::instance();
            tracer.reset();
            ASSERT_TRUE(tracer.openSession(dir.string()));
            const std::uint64_t dropped0 = tracer.droppedEvents();

            fl::FlConfig config = faultyAsyncConfig(threads);
            config.protocol.mode = mode;
            config.protocol.buffer_size = kBuffer;
            config.faults.upload_failure_rate = 0.5;
            std::uint64_t dispatches = 0;
            {
                fl::FlSimulator sim(config);
                for (int r = 0; r < 8; ++r)
                    sim.runRoundWithParams(fl::GlobalParams{4, 1, kCohort});
                dispatches = sim.eventPump()->dispatchCount();
            }
            tracer.finish();
            EXPECT_EQ(tracer.droppedEvents() - dropped0, 0u);

            trc::Journal journal;
            std::string error;
            ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(),
                                         journal, &error))
                << error;
            const std::vector<trc::Chain> chains =
                trc::buildChains(journal.events);
            EXPECT_EQ(chains.size(), dispatches);

            std::size_t in_flight = 0;
            std::size_t parked = 0;
            std::set<std::string> terminals_seen;
            for (const trc::Chain &chain : chains) {
                std::size_t terminals = 0;
                bool accepted = false; // folded or parked in the buffer
                bool buffered = false;
                bool arrived = false;
                for (const trc::TraceEvent &e : chain.events) {
                    buffered |= e.kind == trc::EventKind::Buffer;
                    arrived |= e.kind == trc::EventKind::Arrival;
                    if (terminalKind(e.kind))
                        terminals_seen.insert(
                            std::string(trc::eventKindName(e.kind)) + "/" +
                            trc::reasonName(e.reason));
                    if (e.kind == trc::EventKind::Reject &&
                        e.reason == trc::Reason::Duplicate && accepted)
                        continue;
                    accepted |= e.kind == trc::EventKind::Fold ||
                                e.kind == trc::EventKind::Buffer;
                    terminals += terminalKind(e.kind) ? 1 : 0;
                }
                EXPECT_LE(terminals, 1u) << trc::formatChain(chain);
                if (terminals > 0)
                    continue;
                if (buffered) {
                    ++parked;
                } else {
                    EXPECT_FALSE(arrived) << trc::formatChain(chain);
                    ++in_flight;
                }
            }
            EXPECT_LE(in_flight, kCohort);
            EXPECT_LT(parked, static_cast<std::size_t>(kBuffer));
            if (mode == fl::ProtocolMode::Async) {
                EXPECT_EQ(parked, 0u);
            }
            // Every fault the law must survive happened.
            for (const char *terminal :
                 {"fold/none", "churn/churned", "reject/offline",
                  "reject/upload_failed", "reject/duplicate"})
                EXPECT_TRUE(terminals_seen.count(terminal)) << terminal;

            tracer.reset();
            fs::remove_all(dir);
        }
    }
}

// ---- Inertness: off vs full on the event-driven protocols. -------------

namespace {

std::vector<fl::RoundResult>
runFaultyAsync(std::size_t threads)
{
    fl::FlSimulator sim(faultyAsyncConfig(threads));
    std::vector<fl::RoundResult> results;
    for (int r = 0; r < 4; ++r)
        results.push_back(sim.runRoundWithParams(fl::GlobalParams{4, 1, 8}));
    return results;
}

} // namespace

TEST(TracingEndToEnd, FullTracingIsInertOnAsyncProtocol)
{
    // round_golden_test.cc pins the synchronous pipeline to hexfloat
    // goldens under tracing; this closes the loop for the event-driven
    // path, where the emission sites live in the EventPump.
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<fl::RoundResult> off_results;
        {
            trc::ScopedMode off(trc::Mode::Off);
            off_results = runFaultyAsync(threads);
        }
        std::vector<fl::RoundResult> full_results;
        {
            trc::ScopedMode full(trc::Mode::Full);
            full_results = runFaultyAsync(threads);
            trc::Tracer::instance().reset();
        }
        ASSERT_EQ(off_results.size(), full_results.size());
        for (std::size_t r = 0; r < off_results.size(); ++r) {
            SCOPED_TRACE("round " + std::to_string(r + 1));
            const fl::RoundResult &a = off_results[r];
            const fl::RoundResult &b = full_results[r];
            EXPECT_EQ(a.test_accuracy, b.test_accuracy);
            EXPECT_EQ(a.test_loss, b.test_loss);
            EXPECT_EQ(a.train_loss, b.train_loss);
            EXPECT_EQ(a.round_time, b.round_time);
            EXPECT_EQ(a.energy_total, b.energy_total);
            EXPECT_EQ(a.samples_aggregated, b.samples_aggregated);
        }
    }
}
