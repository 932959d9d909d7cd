/**
 * @file
 * Tracing-runtime benchmark: the two numbers the overhead bound of the
 * causal dispatch tracer is judged by.
 *
 *  - buffer throughput: events/sec recorded into the tracer's one
 *    mutex-guarded buffer under T concurrent producers, and events/sec
 *    drained out of it — a contention stress bound on the journal path,
 *    not a workload (the simulator records about 1800 events a round,
 *    mostly from one thread);
 *  - round overhead: wall time per synchronous round over a 10k-client
 *    lazy fleet with FEDGPO_TRACE off and full. Two simulators of one
 *    config run windows of rounds in off/full pairs, the order flipping
 *    every pair, so both modes see the same rounds and the same host
 *    drift; the row reports each mode's median ms/round and the median
 *    and interquartile range of the per-pair overhead.
 *
 * No trace session is open during the overhead runs, so the numbers
 * isolate the record+drain runtime from journal file I/O (which is
 * buffered, per-round, and proportional to the event count anyway).
 *
 * Results are mirrored into BENCH_obs.json (override with -o PATH).
 * --smoke shrinks the fleet and round counts so CI exercises the full
 * harness in seconds.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fl/simulator.h"
#include "obs/tracing/trace.h"
#include "util/stats.h"

namespace {

using namespace fedgpo;
namespace trc = obs::tracing;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BufferResult
{
    std::size_t threads = 0;
    std::uint64_t events = 0;
    double record_events_per_sec = 0.0;
    double drain_events_per_sec = 0.0;
};

/**
 * T producers hammer record() while the main thread drains in a loop —
 * pool workers tracing Train events against a drain, at far more than
 * a round's event rate.
 */
BufferResult
bufferBench(std::size_t threads, std::uint64_t events_per_thread)
{
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset();
    trc::setMode(trc::Mode::Full);

    BufferResult result;
    result.threads = threads;

    std::atomic<bool> start{false};
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> producers;
    producers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        producers.emplace_back([&, t]() {
            while (!start.load(std::memory_order_acquire))
                std::this_thread::yield();
            trc::TraceEvent e;
            e.kind = trc::EventKind::Train;
            e.worker = static_cast<std::int32_t>(t);
            for (std::uint64_t i = 0; i < events_per_thread; ++i) {
                e.dispatch = i;
                trc::Tracer::instance().record(e);
            }
            done.fetch_add(1, std::memory_order_release);
        });
    }

    std::vector<trc::TraceEvent> sink;
    const auto t0 = Clock::now();
    start.store(true, std::memory_order_release);
    std::uint64_t drained = 0;
    double drain_busy_s = 0.0;
    bool producing = true;
    while (producing) {
        producing = done.load(std::memory_order_acquire) < threads;
        sink.clear();
        const auto d0 = Clock::now();
        drained += tracer.drain(sink);
        drain_busy_s += secondsSince(d0);
    }
    const double wall_s = secondsSince(t0);
    for (std::thread &p : producers)
        p.join();

    result.events = drained;
    result.record_events_per_sec =
        static_cast<double>(threads * events_per_thread) / wall_s;
    result.drain_events_per_sec =
        drain_busy_s > 0.0 ? static_cast<double>(drained) / drain_busy_s
                           : 0.0;

    trc::setMode(trc::Mode::Off);
    tracer.reset();
    return result;
}

struct OverheadResult
{
    std::size_t fleet = 0;
    int k = 0;
    int rounds = 0; //!< rounds per window
    int pairs = 0;  //!< (off, full) window pairs
    double off_ms_per_round = 0.0;  //!< median over the off windows
    double full_ms_per_round = 0.0; //!< median over the full windows
    double overhead_pct_median = 0.0; //!< median per-pair full vs off
    double overhead_pct_iqr = 0.0;    //!< q75 - q25 of the same
    std::uint64_t trace_events = 0;   //!< recorded over the full windows
};

fl::FlConfig
overheadConfig(std::size_t fleet)
{
    fl::FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = fleet;
    // Small data pool and evaluation: the measured quantity is the round
    // machinery the tracer instruments, not SGD or inference.
    config.train_samples = 512;
    config.test_samples = 8;
    config.interference = true;
    config.network_unstable = true;
    config.seed = 7;
    config.threads = 1;
    config.fleet.lru_cap = 1024;
    return config;
}

/** Wall seconds of `rounds` rounds of `sim` with the tracer in `mode`. */
double
timeWindow(fl::FlSimulator &sim, trc::Mode mode, int k, int rounds)
{
    trc::setMode(mode);
    const fl::GlobalParams params{8, 1, k};
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r)
        sim.runRoundWithParams(params);
    const double wall_s = secondsSince(t0);
    trc::setMode(trc::Mode::Off);
    return wall_s;
}

OverheadResult
overheadBench(std::size_t fleet, int k, int rounds, int pairs)
{
    trc::Tracer &tracer = trc::Tracer::instance();
    tracer.reset(); // no session: isolate runtime cost from file I/O

    // Tracing is inert, so two simulators of one config stay in one
    // modeled state: pair p times the same rounds in both modes, which
    // matters because a lazy fleet's rounds grow dearer as the campaign
    // runs (each materialized client replays its runtime from round 0).
    fl::FlSimulator off_sim(overheadConfig(fleet));
    fl::FlSimulator full_sim(overheadConfig(fleet));
    // Warm-up: first-touch materialization, page cache, allocator.
    timeWindow(off_sim, trc::Mode::Off, k, rounds);
    timeWindow(full_sim, trc::Mode::Full, k, rounds);
    tracer.reset();

    std::vector<double> off_ms, full_ms, overhead_pct;
    for (int p = 0; p < pairs; ++p) {
        double off_s = 0.0, full_s = 0.0;
        if (p % 2 == 0) {
            off_s = timeWindow(off_sim, trc::Mode::Off, k, rounds);
            full_s = timeWindow(full_sim, trc::Mode::Full, k, rounds);
        } else {
            full_s = timeWindow(full_sim, trc::Mode::Full, k, rounds);
            off_s = timeWindow(off_sim, trc::Mode::Off, k, rounds);
        }
        off_ms.push_back(off_s * 1e3 / rounds);
        full_ms.push_back(full_s * 1e3 / rounds);
        overhead_pct.push_back((full_s - off_s) / off_s * 100.0);
    }

    OverheadResult result;
    result.fleet = fleet;
    result.k = k;
    result.rounds = rounds;
    result.pairs = pairs;
    result.off_ms_per_round = util::quantile(off_ms, 0.5);
    result.full_ms_per_round = util::quantile(full_ms, 0.5);
    result.overhead_pct_median = util::quantile(overhead_pct, 0.5);
    result.overhead_pct_iqr = util::quantile(overhead_pct, 0.75) -
                              util::quantile(overhead_pct, 0.25);
    result.trace_events = tracer.recordedEvents();
    tracer.reset();
    return result;
}

void
writeJson(const BufferResult &buffer, const OverheadResult &overhead,
          const std::string &path, bool smoke)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"fedgpo.obs_bench.v2\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"buffer\": {\"threads\": " << buffer.threads
        << ", \"events\": " << buffer.events
        << ", \"record_events_per_sec\": " << buffer.record_events_per_sec
        << ", \"drain_events_per_sec\": " << buffer.drain_events_per_sec
        << "},\n"
        << "  \"round_overhead\": {\"fleet\": " << overhead.fleet
        << ", \"k\": " << overhead.k
        << ", \"rounds_per_window\": " << overhead.rounds
        << ", \"pairs\": " << overhead.pairs
        << ", \"off_ms_per_round\": " << overhead.off_ms_per_round
        << ", \"full_ms_per_round\": " << overhead.full_ms_per_round
        << ", \"overhead_pct_median\": " << overhead.overhead_pct_median
        << ", \"overhead_pct_iqr\": " << overhead.overhead_pct_iqr
        << ", \"trace_events\": " << overhead.trace_events << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_obs.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    const std::size_t buffer_threads = smoke ? 2 : 4;
    const std::uint64_t buffer_events = smoke ? 100000 : 2000000;
    const BufferResult buffer = bufferBench(buffer_threads, buffer_events);
    std::printf("buffer: %zu producers, %.2fM events recorded at "
                "%.1fM ev/s, drained at %.1fM ev/s\n",
                buffer.threads, static_cast<double>(buffer.events) / 1e6,
                buffer.record_events_per_sec / 1e6,
                buffer.drain_events_per_sec / 1e6);

    const OverheadResult overhead =
        overheadBench(smoke ? 1000 : 10000, 32, smoke ? 4 : 30,
                      smoke ? 4 : 40);
    std::printf("round overhead: fleet=%zu K=%d, %d pairs of %d-round "
                "windows: off %.3f ms/round, full %.3f ms/round (medians); "
                "full vs off %+.2f%% median, IQR %.2f%% (%llu events)\n",
                overhead.fleet, overhead.k, overhead.pairs, overhead.rounds,
                overhead.off_ms_per_round, overhead.full_ms_per_round,
                overhead.overhead_pct_median, overhead.overhead_pct_iqr,
                static_cast<unsigned long long>(overhead.trace_events));

    writeJson(buffer, overhead, out_path, smoke);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
