/**
 * @file
 * Protocol study: the same heterogeneous deployment (fig. 4 runtime
 * variance: co-running interference + unstable network) run under the
 * three server protocols — synchronous FedAvg, FedAsync-style
 * fold-on-arrival, and FedBuff-style buffered aggregation — at rising
 * dispatch-fault intensity (in-flight churn, duplicate deliveries,
 * offline devices, flaky uploads). Reports modeled time-to-accuracy and
 * energy per cell: the async modes trade staleness for never paying the
 * round barrier, and the fault model is what makes that trade-off real.
 *
 *   ./build/examples/async_study [--smoke]
 *
 * --smoke runs a two-level, few-round version (used by the CI chaos job
 * under TSan to exercise the event-pump fault paths quickly). When
 * FEDGPO_TRACE_OUT is set, each (protocol, fault level) cell streams a
 * JSONL round trace there (tools/trace_summarize renders the staleness
 * histogram and rejection counts from those files).
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "fl/round/trace_writer.h"
#include "fl/simulator.h"
#include "obs/metrics.h"
#include "obs/tracing/trace.h"
#include "runtime/runtime_config.h"
#include "util/table.h"

using namespace fedgpo;

namespace {

struct CellResult
{
    double final_acc = 0.0;
    double time_to_target = -1.0; //!< modeled s; -1 = never reached
    double total_time = 0.0;      //!< modeled campaign time (s)
    double energy_kj = 0.0;
    double staleness_mean = 0.0;  //!< mean over rounds with folds
    std::size_t churned = 0;
    std::size_t stale = 0;
    std::size_t duplicates = 0;
};

CellResult
runCell(const fl::FlConfig &config, const std::string &stem, int rounds,
        double target_acc)
{
    fl::FlSimulator sim(config);
    auto trace =
        fl::round::openRoundTrace(obs::tracing::outputDir(), stem);
    if (trace)
        sim.addRoundObserver(trace.get());
    CellResult out;
    double staleness_sum = 0.0;
    int staleness_rounds = 0;
    for (int r = 0; r < rounds; ++r) {
        const fl::RoundResult res =
            sim.runRoundWithParams(fl::GlobalParams{8, 2, 8});
        out.final_acc = res.test_accuracy;
        out.total_time += res.round_time;
        out.energy_kj += res.energy_total / 1000.0;
        out.churned += res.dropped_churn;
        out.stale += res.dropped_stale;
        out.duplicates += res.dropped_duplicate;
        if (res.staleness_mean > 0.0) {
            staleness_sum += res.staleness_mean;
            ++staleness_rounds;
        }
        if (out.time_to_target < 0.0 && res.test_accuracy >= target_acc)
            out.time_to_target = out.total_time;
    }
    if (staleness_rounds > 0)
        out.staleness_mean =
            staleness_sum / static_cast<double>(staleness_rounds);
    if (trace)
        sim.removeRoundObserver(trace.get());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    fl::FlConfig base;
    base.workload = models::Workload::CnnMnist;
    base.n_devices = smoke ? 16 : 32;
    base.train_samples = smoke ? 320 : 800;
    base.test_samples = smoke ? 96 : 160;
    base.seed = 23;
    base.interference = true;     // fig. 4 runtime variance on
    base.network_unstable = true;
    const int rounds = smoke ? 4 : 24;
    const double target_acc = smoke ? 0.3 : 0.6;
    const std::vector<double> fault_levels =
        smoke ? std::vector<double>{0.0, 0.4}
              : std::vector<double>{0.0, 0.2, 0.4};

    std::cout << "Async protocol study: " << base.n_devices
              << " devices, " << rounds << " rounds per cell"
              << (smoke ? " (smoke mode)" : "") << "\n";
    std::cout << "Runtime: " << runtime::resolveThreads(0)
              << " worker thread(s) (override with FEDGPO_THREADS)\n\n";

    struct Proto
    {
        const char *name;
        fl::ProtocolMode mode;
    };
    const std::vector<Proto> protocols = {
        {"sync", fl::ProtocolMode::Sync},
        {"async", fl::ProtocolMode::Async},
        {"buffered", fl::ProtocolMode::Buffered},
    };

    util::Table table({"faults", "protocol", "final acc", "t@" +
                       util::fmtPct(target_acc, 0) + " (s)",
                       "total t (s)", "energy (kJ)", "mean tau",
                       "churned", "stale", "dup"});
    for (double level : fault_levels) {
        for (const Proto &proto : protocols) {
            fl::FlConfig config = base;
            config.protocol.mode = proto.mode;
            config.protocol.buffer_size = 4;
            config.faults.churn_rate = level * 0.5;
            config.faults.duplicate_rate = level * 0.25;
            config.faults.offline_rate = level * 0.25;
            config.faults.upload_failure_rate = level * 0.5;
            config.faults.reconnect_delay_s = 10.0;

            const std::string stem =
                "async_study_" + std::string(proto.name) + "_f" +
                std::to_string(static_cast<int>(level * 100));
            const CellResult r =
                runCell(config, stem, rounds, target_acc);
            table.addRow(
                {util::fmtPct(level, 0), proto.name,
                 util::fmt(r.final_acc, 3),
                 r.time_to_target >= 0.0
                     ? util::fmt(r.time_to_target, 1)
                     : std::string("-"),
                 util::fmt(r.total_time, 1), util::fmt(r.energy_kj, 1),
                 util::fmt(r.staleness_mean, 2),
                 std::to_string(r.churned), std::to_string(r.stale),
                 std::to_string(r.duplicates)});
        }
    }
    table.print(std::cout,
                "Sync vs async vs buffered under rising dispatch "
                "faults (fig. 4 variance on)");
    std::cout << "\nAsync folds each arrival immediately "
                 "(staleness-weighted); buffered flushes every M "
                 "arrivals or on timeout.\nChurned devices burn a "
                 "partial round and reconnect later; duplicates and "
                 "over-stale\nupdates are rejected by the dispatch "
                 "epoch and the staleness bound.\n";
    // Drain the FEDGPO_TRACE session (perfetto.json follows at exit)
    // and, when FEDGPO_METRICS is on, write the metrics summary and
    // snapshot.
    fedgpo::obs::finishRun();
    return 0;
}
