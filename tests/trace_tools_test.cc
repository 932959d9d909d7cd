/**
 * @file
 * Tests of the trace tooling libraries: diffTraceDirs (structural
 * round-trace compare + order-insensitive journal compare, torn-line
 * tolerance), readJournal robustness against partially written files,
 * buildChains run-splitting over multi-campaign journals, and the
 * outcome taxonomy of Chain::outcome().
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/tracing/diff.h"
#include "obs/tracing/export.h"
#include "obs/tracing/query.h"
#include "util/json.h"

using namespace fedgpo;
namespace trc = fedgpo::obs::tracing;
namespace fs = std::filesystem;

namespace {

fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("fedgpo_trace_tools_test_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
writeFile(const fs::path &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path);
    for (const std::string &line : lines)
        out << line << "\n";
}

trc::TraceEvent
makeEvent(trc::EventKind kind, std::int32_t round, std::uint64_t dispatch,
          std::uint64_t client, std::uint64_t seq,
          trc::Reason reason = trc::Reason::None, std::int64_t aux = -1)
{
    trc::TraceEvent e;
    e.kind = kind;
    e.round = round;
    e.dispatch = dispatch;
    e.client = client;
    e.seq = seq;
    e.reason = reason;
    e.aux = aux;
    return e;
}

/** A minimal but realistic two-file trace directory. */
void
writeTraceDir(const fs::path &dir)
{
    writeFile(dir / "round_000001.jsonl",
              {"{\"round\": 1, \"test_accuracy\": 0.5, \"bytes_up\": 100}",
               "{\"round\": 1, \"decision\": {\"k\": 6}}"});
    writeFile(dir / "journal.jsonl",
              {"{\"k\": \"round_start\", \"round\": 1, \"seq\": 0, "
               "\"host_ns\": 10}",
               "{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 1, \"host_ns\": 20, \"vt\": 0}",
               "{\"k\": \"fold\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 2, \"host_ns\": 30, \"vt\": 4.5}"});
}

} // namespace

// ---- diffTraceDirs. ----------------------------------------------------

TEST(TraceDiff, IdenticalDirsCompareEqual)
{
    const fs::path a = scratchDir("ident_a");
    const fs::path b = scratchDir("ident_b");
    writeTraceDir(a);
    writeTraceDir(b);

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_TRUE(result.identical) << trc::formatDiff(result, a.string(),
                                                     b.string());
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, HostTimeFieldsAreIgnored)
{
    const fs::path a = scratchDir("host_a");
    const fs::path b = scratchDir("host_b");
    writeTraceDir(a);
    writeTraceDir(b);
    // Same events, different host clocks and worker assignment: the
    // definition of two runs of the same simulation.
    writeFile(b / "journal.jsonl",
              {"{\"k\": \"round_start\", \"round\": 1, \"seq\": 5, "
               "\"host_ns\": 99999}",
               "{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 6, \"host_ns\": 99999, \"vt\": 0, \"worker\": 2}",
               "{\"k\": \"fold\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 7, \"host_ns\": 99999, \"vt\": 4.5}"});

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_TRUE(result.identical) << trc::formatDiff(result, a.string(),
                                                     b.string());
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, JournalLineOrderIsIrrelevant)
{
    const fs::path a = scratchDir("perm_a");
    const fs::path b = scratchDir("perm_b");
    writeTraceDir(a);
    writeTraceDir(b);
    // Permute the journal: worker interleaving legitimately reorders
    // emission between runs.
    writeFile(b / "journal.jsonl",
              {"{\"k\": \"fold\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 2, \"host_ns\": 30, \"vt\": 4.5}",
               "{\"k\": \"round_start\", \"round\": 1, \"seq\": 0, "
               "\"host_ns\": 10}",
               "{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 1, \"host_ns\": 20, \"vt\": 0}"});

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_TRUE(result.identical) << trc::formatDiff(result, a.string(),
                                                     b.string());
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, PerturbedFieldIsLocatedExactly)
{
    const fs::path a = scratchDir("field_a");
    const fs::path b = scratchDir("field_b");
    writeTraceDir(a);
    writeTraceDir(b);
    writeFile(b / "round_000001.jsonl",
              {"{\"round\": 1, \"test_accuracy\": 0.75, \"bytes_up\": 100}",
               "{\"round\": 1, \"decision\": {\"k\": 6}}"});

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_FALSE(result.identical);
    EXPECT_FALSE(result.error);
    EXPECT_EQ(result.file, "round_000001.jsonl");
    EXPECT_EQ(result.line, 1u);
    EXPECT_EQ(result.round, 1);
    EXPECT_EQ(result.field, "test_accuracy");
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, PerturbedJournalEventIsReported)
{
    const fs::path a = scratchDir("jfield_a");
    const fs::path b = scratchDir("jfield_b");
    writeTraceDir(a);
    writeTraceDir(b);
    writeFile(b / "journal.jsonl",
              {"{\"k\": \"round_start\", \"round\": 1, \"seq\": 0, "
               "\"host_ns\": 10}",
               "{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 4, "
               "\"seq\": 1, \"host_ns\": 20, \"vt\": 0}",
               "{\"k\": \"fold\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 2, \"host_ns\": 30, \"vt\": 4.5}"});

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_FALSE(result.identical);
    EXPECT_EQ(result.file, "journal.jsonl");
    EXPECT_NE(result.detail.find("occurs 1x vs 0x"), std::string::npos)
        << result.detail;
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, ExtraFileIsReported)
{
    const fs::path a = scratchDir("extra_a");
    const fs::path b = scratchDir("extra_b");
    writeTraceDir(a);
    writeTraceDir(b);
    writeFile(b / "round_000002.jsonl", {"{\"round\": 2}"});

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_FALSE(result.identical);
    EXPECT_EQ(result.file, "round_000002.jsonl");
    EXPECT_NE(result.detail.find("only in"), std::string::npos);
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, TornFinalJournalLineIsTolerated)
{
    const fs::path a = scratchDir("torn_a");
    const fs::path b = scratchDir("torn_b");
    writeTraceDir(a);
    writeTraceDir(b);
    // Simulate an aborted run: the same journal with a half-written tail.
    writeFile(b / "journal.jsonl",
              {"{\"k\": \"round_start\", \"round\": 1, \"seq\": 0, "
               "\"host_ns\": 10}",
               "{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 1, \"host_ns\": 20, \"vt\": 0}",
               "{\"k\": \"fold\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 2, \"host_ns\": 30, \"vt\": 4.5}",
               "{\"k\": \"round_end\", \"rou"});

    const trc::DiffResult result =
        trc::diffTraceDirs(a.string(), b.string());
    EXPECT_TRUE(result.identical) << trc::formatDiff(result, a.string(),
                                                     b.string());
    fs::remove_all(a);
    fs::remove_all(b);
}

TEST(TraceDiff, MissingDirectoryIsAnError)
{
    const fs::path a = scratchDir("err_a");
    writeTraceDir(a);
    const trc::DiffResult result = trc::diffTraceDirs(
        a.string(), (a / "no_such_subdir").string());
    EXPECT_FALSE(result.identical);
    EXPECT_TRUE(result.error);
    fs::remove_all(a);
}

// ---- readJournal robustness. -------------------------------------------

TEST(TraceJournal, EmptyFileReadsAsEmptyJournal)
{
    const fs::path dir = scratchDir("empty");
    writeFile(dir / "journal.jsonl", {});

    trc::Journal journal;
    std::string error;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 &error))
        << error;
    EXPECT_TRUE(journal.events.empty());
    EXPECT_EQ(journal.malformed_lines, 0u);
    EXPECT_FALSE(journal.torn_final_line);
    fs::remove_all(dir);
}

TEST(TraceJournal, MissingFileIsAnError)
{
    trc::Journal journal;
    std::string error;
    EXPECT_FALSE(trc::readJournal("/no/such/journal.jsonl", journal,
                                  &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceJournal, TornFinalLineIsFlaggedNotCounted)
{
    const fs::path dir = scratchDir("torn");
    writeFile(dir / "journal.jsonl",
              {"{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 0, \"host_ns\": 10}",
               "{\"k\": \"fold\", \"round\": 1, \"d"});

    trc::Journal journal;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 nullptr));
    EXPECT_EQ(journal.events.size(), 1u);
    EXPECT_TRUE(journal.torn_final_line);
    EXPECT_EQ(journal.malformed_lines, 0u);
    fs::remove_all(dir);
}

TEST(TraceJournal, MalformedMiddleLinesAreCountedAndSkipped)
{
    const fs::path dir = scratchDir("malformed");
    writeFile(dir / "journal.jsonl",
              {"{\"k\": \"select\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 0, \"host_ns\": 10}",
               "not json at all",
               "{\"k\": \"bogus_kind\", \"round\": 1}",
               "{\"k\": \"fold\", \"round\": 1, \"d\": 0, \"c\": 3, "
               "\"seq\": 1, \"host_ns\": 20}"});

    trc::Journal journal;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 nullptr));
    EXPECT_EQ(journal.events.size(), 2u);
    EXPECT_EQ(journal.malformed_lines, 2u);
    EXPECT_FALSE(journal.torn_final_line);
    fs::remove_all(dir);
}

TEST(TraceJournal, NonFiniteEventValuesSerializeAsNull)
{
    // Regression: a diverged client carries NaN/Inf through the event
    // payloads (update_scale, loss fractions). %.17g would write literal
    // nan/inf — invalid JSON that poisons the whole journal for
    // readJournal and every downstream tool. The writer must emit null.
    trc::TraceEvent e;
    e.kind = trc::EventKind::Fold;
    e.round = 3;
    e.dispatch = 7;
    e.client = 9;
    e.seq = 4;
    e.host_ns = 100;
    e.value = std::numeric_limits<double>::quiet_NaN();
    e.virtual_ts = std::numeric_limits<double>::infinity();
    const std::string line = trc::journalLine(e);
    EXPECT_EQ(line.find(":nan"), std::string::npos) << line;
    EXPECT_EQ(line.find(":inf"), std::string::npos) << line;
    EXPECT_NE(line.find("\"v\":null"), std::string::npos) << line;
    EXPECT_NE(line.find("\"vt\":null"), std::string::npos) << line;

    util::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(util::JsonValue::parse(line, parsed, &error))
        << error << " in " << line;
    trc::TraceEvent back;
    EXPECT_TRUE(trc::parseJournalLine(line, back));

    // A journal mixing diverged and healthy events reads back whole.
    const fs::path dir = scratchDir("nonfinite");
    trc::TraceEvent ok = e;
    ok.value = 0.5;
    ok.virtual_ts = 1.0;
    ok.seq = 5;
    writeFile(dir / "journal.jsonl",
              {trc::journalLine(e), trc::journalLine(ok)});
    trc::Journal journal;
    ASSERT_TRUE(trc::readJournal((dir / "journal.jsonl").string(), journal,
                                 &error))
        << error;
    EXPECT_EQ(journal.events.size(), 2u);
    EXPECT_EQ(journal.malformed_lines, 0u);
    fs::remove_all(dir);
}

TEST(TraceJournal, NonFinitePerfettoExportStaysParseable)
{
    // The Perfetto writer shares num(): NaN durations/values must not
    // produce a trace file chrome://tracing refuses to load.
    const fs::path dir = scratchDir("perfetto_nan");
    std::vector<trc::TraceEvent> events;
    trc::TraceEvent e;
    e.kind = trc::EventKind::Fold;
    e.round = 0;
    e.client = 1;
    e.seq = 0;
    e.host_ns = 10;
    e.value = std::numeric_limits<double>::quiet_NaN();
    e.virtual_ts = std::numeric_limits<double>::infinity();
    events.push_back(e);
    const std::string path = (dir / "perfetto.json").string();
    ASSERT_TRUE(trc::writeChromeTrace(path, events));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text.find(":nan"), std::string::npos);
    EXPECT_EQ(text.find(":inf"), std::string::npos);
    EXPECT_EQ(text.find(": nan"), std::string::npos);
    EXPECT_EQ(text.find(": inf"), std::string::npos);
    util::JsonValue parsed;
    std::string error;
    EXPECT_TRUE(util::JsonValue::parse(text, parsed, &error)) << error;
    fs::remove_all(dir);
}

// ---- buildChains: grouping and run-splitting. --------------------------

TEST(TraceChains, RoundScopedEventsAreNotChained)
{
    std::vector<trc::TraceEvent> events;
    events.push_back(makeEvent(trc::EventKind::RoundStart, 1, 0, 0, 0));
    events.push_back(makeEvent(trc::EventKind::Select, 1, 0, 3, 1));
    events.push_back(makeEvent(trc::EventKind::Fold, 1, 0, 3, 2));
    events.push_back(makeEvent(trc::EventKind::StageSpan, 1, 0, 0, 3));
    events.push_back(makeEvent(trc::EventKind::RoundEnd, 1, 0, 0, 4));

    const std::vector<trc::Chain> chains = trc::buildChains(events);
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].key.round, 1);
    EXPECT_EQ(chains[0].key.client, 3u);
    EXPECT_EQ(chains[0].events.size(), 2u);
}

TEST(TraceChains, RepeatedRoundStartSplitsRuns)
{
    // Two back-to-back campaigns in one journal, both starting at round
    // 1 with the same dispatch/client ids — the collision the run
    // generation exists for.
    std::vector<trc::TraceEvent> events;
    std::uint64_t seq = 0;
    for (int campaign = 0; campaign < 2; ++campaign) {
        events.push_back(
            makeEvent(trc::EventKind::RoundStart, 1, 0, 0, seq++));
        events.push_back(makeEvent(trc::EventKind::Select, 1, 0, 3, seq++));
        events.push_back(makeEvent(trc::EventKind::Fold, 1, 0, 3, seq++));
    }

    const std::vector<trc::Chain> chains = trc::buildChains(events);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].key.run, 0);
    EXPECT_EQ(chains[1].key.run, 1);
    EXPECT_EQ(chains[0].key.round, chains[1].key.round);
    EXPECT_EQ(chains[0].key.dispatch, chains[1].key.dispatch);
    EXPECT_EQ(chains[0].key.client, chains[1].key.client);
    EXPECT_EQ(chains[0].events.size(), 2u);
    EXPECT_EQ(chains[1].events.size(), 2u);
    // The run suffix shows up in the rendering of the second campaign.
    EXPECT_EQ(trc::formatChain(chains[0]).find("(run"),
              std::string::npos);
    EXPECT_NE(trc::formatChain(chains[1]).find("(run 2)"),
              std::string::npos);
}

TEST(TraceChains, MonotoneRoundsStayOneRun)
{
    std::vector<trc::TraceEvent> events;
    std::uint64_t seq = 0;
    for (int round = 1; round <= 3; ++round) {
        events.push_back(
            makeEvent(trc::EventKind::RoundStart, round, 0, 0, seq++));
        events.push_back(
            makeEvent(trc::EventKind::Select, round, 0, 3, seq++));
    }
    const std::vector<trc::Chain> chains = trc::buildChains(events);
    ASSERT_EQ(chains.size(), 3u);
    for (const trc::Chain &chain : chains)
        EXPECT_EQ(chain.key.run, 0);
}

TEST(TraceChains, EventsAreSortedBySeqWithinAChain)
{
    std::vector<trc::TraceEvent> events;
    events.push_back(makeEvent(trc::EventKind::Fold, 1, 0, 3, 9));
    events.push_back(makeEvent(trc::EventKind::Select, 1, 0, 3, 2));
    events.push_back(makeEvent(trc::EventKind::Arrival, 1, 0, 3, 5));

    const std::vector<trc::Chain> chains = trc::buildChains(events);
    ASSERT_EQ(chains.size(), 1u);
    ASSERT_EQ(chains[0].events.size(), 3u);
    EXPECT_EQ(chains[0].events[0].kind, trc::EventKind::Select);
    EXPECT_EQ(chains[0].events[1].kind, trc::EventKind::Arrival);
    EXPECT_EQ(chains[0].events[2].kind, trc::EventKind::Fold);
}

// ---- Outcome taxonomy. -------------------------------------------------

namespace {

std::string
outcomeOf(const std::vector<trc::TraceEvent> &events)
{
    const std::vector<trc::Chain> chains = trc::buildChains(events);
    EXPECT_EQ(chains.size(), 1u);
    return chains.empty() ? "" : chains[0].outcome();
}

} // namespace

TEST(TraceChains, OutcomeTaxonomy)
{
    using K = trc::EventKind;
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Arrival, 1, 0, 3, 1),
                         makeEvent(K::Fold, 1, 0, 3, 2)}),
              "folded");
    // Async fold-on-arrival carries staleness in aux — still a plain
    // fold, not a buffered flush.
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Arrival, 1, 0, 3, 1),
                         makeEvent(K::Fold, 1, 0, 3, 2,
                                   trc::Reason::None, /*aux=*/2)}),
              "folded");
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Buffer, 1, 0, 3, 1),
                         makeEvent(K::Fold, 1, 0, 3, 2)}),
              "buffered→flushed");
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Buffer, 1, 0, 3, 1)}),
              "buffered (pending)");
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Reject, 1, 0, 3, 1,
                                   trc::Reason::Stale)}),
              "rejected (stale)");
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Churn, 1, 0, 3, 1)}),
              "lost to churn");
    EXPECT_EQ(outcomeOf({makeEvent(K::Select, 1, 0, 3, 0),
                         makeEvent(K::Dispatch, 1, 0, 3, 1)}),
              "in flight");
}
