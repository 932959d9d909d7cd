#include "workloads.h"

#include <algorithm>
#include <thread>

namespace fedgpo {
namespace e2e {

namespace {

/** The shared 200-device, 6000/1000-sample fleet of W1-W3. */
fl::FlConfig
paperFleet(models::Workload model)
{
    fl::FlConfig c;
    c.workload = model;
    c.n_devices = 200;
    c.train_samples = 6000;
    c.test_samples = 1000;
    c.interference = true;
    c.network_unstable = true;
    return c;
}

std::vector<Workload>
buildWorkloads()
{
    std::vector<Workload> out;

    {
        Workload w;
        w.name = "cnn-fedgpo-sync";
        w.why = "the paper's headline scenario and the only one where the "
                "FedGPO controller picks (B,E,K); training dominates";
        w.config = paperFleet(models::Workload::CnnMnist);
        w.fedgpo = true;
        w.rounds = 20;
        w.campaigns = 7;
        w.target = 0.88;
        w.max_rounds = 40;
        out.push_back(w);
    }
    {
        Workload w;
        w.name = "lstm-async-fastmath";
        w.why = "the only event-pump and fast-math workload; top-up "
                "dispatches train serially, with all dispatch faults on";
        w.config = paperFleet(models::Workload::LstmShakespeare);
        w.config.protocol.mode = fl::ProtocolMode::Async;
        w.config.protocol.mix = 0.6;
        w.config.protocol.staleness = fl::async::StalenessKind::Polynomial;
        w.config.faults.churn_rate = 0.1;
        w.config.faults.duplicate_rate = 0.05;
        w.config.faults.offline_rate = 0.05;
        w.config.faults.upload_failure_rate = 0.1;
        w.config.faults.reconnect_delay_s = 10.0;
        w.params = fl::GlobalParams{8, 2, 32};
        w.fast_math = true;
        w.rounds = 6;
        w.campaigns = 16;
        w.target = 0.60;
        w.max_rounds = 30;
        out.push_back(w);
    }
    {
        Workload w;
        w.name = "mobilenet-noniid-topk";
        w.why = "the largest conv/depthwise model and the only codec "
                "traffic (TopK error feedback), on non-IID shards";
        w.config = paperFleet(models::Workload::MobileNetImageNet);
        w.config.distribution = data::Distribution::NonIid;
        w.config.dirichlet_alpha = 0.1;
        w.config.comm.codec = comm::Codec::TopK;
        w.params = fl::GlobalParams{8, 1, 32};
        w.rounds = 8;
        w.campaigns = 14;
        w.target = 0.55;
        w.max_rounds = 60;
        out.push_back(w);
    }
    {
        Workload w;
        w.name = "fleet1m-sync-traced";
        w.why = "a 1M-device lazy fleet where selection, aggregation and "
                "energy bookkeeping dominate, with causal tracing on";
        w.config.workload = models::Workload::CnnMnist;
        w.config.n_devices = 1000000;
        w.config.train_samples = 60000;
        w.config.test_samples = 256;
        w.config.interference = true;
        w.config.network_unstable = true;
        w.config.fleet.lru_cap = 1024;
        w.config.faults.offline_rate = 0.05;
        w.config.faults.crash_rate = 0.05;
        w.config.faults.upload_failure_rate = 0.1;
        w.params = fl::GlobalParams{4, 1, 256};
        w.traced = true;
        w.metrics = obs::Level::Basic;
        w.rounds = 50;
        w.campaigns = 15;
        w.target = 0.40;
        w.max_rounds = 300;
        out.push_back(w);
    }
    return out;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = buildWorkloads();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::size_t
benchThreads()
{
    // One core stays free for the benchmark's parent and the rest of the
    // host: a worker preempted by a stray process stalls every barrier
    // of the round. On a 4-vCPU VM, five identical cnn-fedgpo-sync
    // campaigns spread over 18% of their wall time with 4 workers and
    // over 7% with 3.
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw > 1 ? hw - 1 : 1, 1, 4);
}

std::uint64_t
campaignSeed(std::uint64_t seed, int campaign)
{
    return seed + 7919ULL * static_cast<std::uint64_t>(campaign);
}

} // namespace e2e
} // namespace fedgpo
