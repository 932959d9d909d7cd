/**
 * @file
 * Quickstart: run a small federated-learning session with FedGPO picking
 * the global parameters each round, and print the per-round trace.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>
#include <string>

#include "core/fedgpo.h"
#include "fl/round/trace_writer.h"
#include "fl/simulator.h"
#include "obs/metrics.h"
#include "obs/tracing/trace.h"
#include "util/table.h"

using namespace fedgpo;

int
main()
{
    // 1. Describe the FL deployment: 24 devices with the paper's H/M/L
    //    tier mix, training the CNN-MNIST workload on IID data.
    fl::FlConfig config;
    config.workload = models::Workload::CnnMnist;
    config.n_devices = 24;
    config.train_samples = 720;
    config.test_samples = 200;
    config.seed = 1;

    fl::FlSimulator sim(config);
    std::cout << "Fleet: " << sim.numDevices() << " devices, model has "
              << sim.globalModel().paramCount() << " parameters\n";
    std::cout << "Runtime: " << sim.threads()
              << " worker thread(s) (override with FEDGPO_THREADS; "
                 "results are thread-count-invariant)\n\n";

    // 2. Create the FedGPO policy (paper defaults: gamma=0.9, mu=0.1,
    //    epsilon=0.1). With FEDGPO_TRACE_OUT set, stream a per-round
    //    JSONL trace there alongside the printed table (see README,
    //    "Round traces").
    core::FedGpo policy;
    auto trace = fl::round::openRoundTrace(obs::tracing::outputDir(),
                                           "quickstart_trace");
    if (trace)
        sim.addRoundObserver(trace.get());

    // 3. Drive aggregation rounds. Each call selects K clients, assigns
    //    per-device (B, E), runs real local SGD on every client, models
    //    time/energy, aggregates, and feeds the reward back into the
    //    Q-tables.
    util::Table table({"round", "test acc", "round time (s)",
                       "energy (J)", "K", "dropped"});
    for (int round = 0; round < 12; ++round) {
        fl::RoundResult r = sim.runRound(policy);
        table.addRow({std::to_string(r.round), util::fmt(r.test_accuracy),
                      util::fmt(r.round_time, 1),
                      util::fmt(r.energy_total, 1),
                      std::to_string(r.participants.size()),
                      std::to_string(r.droppedCount())});
    }
    table.print(std::cout, "FedGPO-driven federated learning");
    if (trace)
        std::cout << "\nWrote " << trace->roundsWritten()
                  << " round records to " << obs::tracing::outputDir()
                  << "/quickstart_trace.jsonl\n";

    // With FEDGPO_METRICS=basic|profile: print the host-time profile and
    // write the Prometheus snapshot ($FEDGPO_TRACE_OUT/metrics.prom).
    if (obs::enabled()) {
        std::cout << "\n";
        obs::finishRun(&std::cout);
    }

    std::cout << "\nQ-table memory: "
              << static_cast<double>(policy.qTableBytes()) / 1e6
              << " MB across "
              << device::kNumCategories << " shared category tables + 1 "
              << "global K table\n";
    return 0;
}
