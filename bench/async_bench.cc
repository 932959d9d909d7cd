/**
 * @file
 * Protocol benchmark: modeled time-to-accuracy and energy of the three
 * server protocols (sync FedAvg, FedAsync fold-on-arrival, FedBuff
 * buffered) under the fig. 4 runtime-variance scenario at rising
 * dispatch-fault intensity (in-flight churn, duplicates, offline
 * devices, flaky uplinks).
 *
 * The headline numbers the async subsystem exists for:
 *  - time-to-accuracy: the event modes never pay the round barrier, so
 *    the same accuracy arrives in a fraction of the modeled wall clock
 *    ("speedup_vs_sync" in the summary: sync's time to the target over
 *    the mode's, null when either never reaches it);
 *  - fault tax: at each fault level the same seeds inject the same
 *    churn/duplicate processes, so the per-protocol accuracy and drop
 *    columns isolate what the fault model costs each protocol.
 *
 * Results are mirrored into BENCH_async.json (override with -o PATH).
 * --smoke shrinks rounds and the fault grid so CI exercises the full
 * harness in seconds.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fl/simulator.h"

namespace {

using namespace fedgpo;

struct Row
{
    std::string protocol;
    double fault_level = 0.0;
    int rounds = 0;
    double final_acc = 0.0;
    double time_to_target = -1.0; //!< modeled s; < 0 = never reached
    double total_time = 0.0;      //!< modeled campaign time (s)
    double energy_kj = 0.0;
    double staleness_mean = 0.0;
    std::size_t churned = 0;
    std::size_t stale = 0;
    std::size_t duplicates = 0;
    std::size_t offline = 0;
};

fl::FlConfig
benchConfig(fl::ProtocolMode mode, double fault_level)
{
    fl::FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 32;
    config.train_samples = 640;
    config.test_samples = 128;
    config.interference = true; // fig. 4 runtime variance on
    config.network_unstable = true;
    config.seed = 23;
    config.threads = 0;
    config.protocol.mode = mode;
    config.protocol.buffer_size = 4;
    config.faults.churn_rate = fault_level * 0.5;
    config.faults.duplicate_rate = fault_level * 0.25;
    config.faults.offline_rate = fault_level * 0.25;
    config.faults.upload_failure_rate = fault_level * 0.5;
    config.faults.reconnect_delay_s = 10.0;
    return config;
}

Row
runOne(fl::ProtocolMode mode, const char *name, double fault_level,
       int rounds, double target_acc)
{
    fl::FlSimulator sim(benchConfig(mode, fault_level));
    Row row;
    row.protocol = name;
    row.fault_level = fault_level;
    row.rounds = rounds;
    double staleness_sum = 0.0;
    int staleness_rounds = 0;
    for (int r = 0; r < rounds; ++r) {
        const fl::RoundResult res =
            sim.runRoundWithParams(fl::GlobalParams{8, 2, 8});
        row.final_acc = res.test_accuracy;
        row.total_time += res.round_time;
        row.energy_kj += res.energy_total / 1000.0;
        row.churned += res.dropped_churn;
        row.stale += res.dropped_stale;
        row.duplicates += res.dropped_duplicate;
        row.offline += res.dropped_offline;
        if (res.staleness_mean > 0.0) {
            staleness_sum += res.staleness_mean;
            ++staleness_rounds;
        }
        if (row.time_to_target < 0.0 && res.test_accuracy >= target_acc)
            row.time_to_target = row.total_time;
    }
    if (staleness_rounds > 0)
        row.staleness_mean =
            staleness_sum / static_cast<double>(staleness_rounds);
    return row;
}

void
printRow(const Row &r)
{
    char t_target[32];
    if (r.time_to_target >= 0.0)
        std::snprintf(t_target, sizeof t_target, "%.1fs",
                      r.time_to_target);
    else
        std::snprintf(t_target, sizeof t_target, "-");
    std::printf("%-8s faults=%.0f%%  acc=%.3f  t_target=%8s  "
                "t_total=%7.1fs  %6.1f kJ  tau=%.2f  "
                "churn/stale/dup/off=%zu/%zu/%zu/%zu\n",
                r.protocol.c_str(), r.fault_level * 100.0, r.final_acc,
                t_target, r.total_time, r.energy_kj, r.staleness_mean,
                r.churned, r.stale, r.duplicates, r.offline);
    std::fflush(stdout);
}

void
writeJson(const std::vector<Row> &rows, const std::string &path,
          bool smoke, double target_acc)
{
    // Time-to-target speedup of each event mode over sync at the same
    // fault level. A mode or sync that never reaches the target earns
    // no ratio: crediting a miss with its shorter campaign would reward
    // stopping early.
    std::string speedups;
    for (const Row &r : rows) {
        if (r.protocol == "sync")
            continue;
        for (const Row &sync : rows) {
            if (sync.protocol != "sync" ||
                sync.fault_level != r.fault_level)
                continue;
            if (!speedups.empty())
                speedups += ", ";
            const bool both = r.time_to_target >= 0.0 &&
                              sync.time_to_target >= 0.0;
            speedups += "{\"protocol\": \"" + r.protocol +
                        "\", \"fault_level\": " +
                        std::to_string(r.fault_level) +
                        ", \"speedup_vs_sync\": " +
                        (both ? std::to_string(sync.time_to_target /
                                               r.time_to_target)
                              : std::string("null")) +
                        "}";
        }
    }

    std::ofstream out(path);
    out << "{\n  \"schema\": \"fedgpo.async_bench.v2\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"target_accuracy\": " << target_acc << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "    {\"protocol\": \"" << r.protocol
            << "\", \"fault_level\": " << r.fault_level
            << ", \"rounds\": " << r.rounds
            << ", \"final_accuracy\": " << r.final_acc
            << ", \"time_to_target_s\": ";
        if (r.time_to_target < 0.0)
            out << "null";
        else
            out << r.time_to_target;
        out << ", \"total_modeled_time_s\": " << r.total_time
            << ", \"energy_kj\": " << r.energy_kj
            << ", \"staleness_mean\": " << r.staleness_mean
            << ", \"dropped_churn\": " << r.churned
            << ", \"dropped_stale\": " << r.stale
            << ", \"dropped_duplicate\": " << r.duplicates
            << ", \"dropped_offline\": " << r.offline << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"speedups\": [" << speedups << "]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_async.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    const int rounds = smoke ? 4 : 24;
    const double target_acc = smoke ? 0.3 : 0.6;
    const std::vector<double> fault_levels =
        smoke ? std::vector<double>{0.0, 0.4}
              : std::vector<double>{0.0, 0.2, 0.4};

    struct Proto
    {
        fl::ProtocolMode mode;
        const char *name;
    };
    const Proto protocols[] = {
        {fl::ProtocolMode::Sync, "sync"},
        {fl::ProtocolMode::Async, "async"},
        {fl::ProtocolMode::Buffered, "buffered"},
    };

    std::vector<Row> rows;
    for (double level : fault_levels) {
        for (const Proto &proto : protocols) {
            rows.push_back(runOne(proto.mode, proto.name, level, rounds,
                                  target_acc));
            printRow(rows.back());
        }
    }
    writeJson(rows, out_path, smoke, target_acc);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
