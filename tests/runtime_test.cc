/**
 * @file
 * Tests for the deterministic parallel execution engine: thread-pool
 * scheduling, worker contexts, thread-count resolution, and — the hard
 * requirement — bit-identical simulation results between serial and
 * multi-threaded execution on every workload, in both kernel modes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fl/simulator.h"
#include "models/zoo.h"
#include "runtime/runtime_config.h"
#include "runtime/thread_pool.h"
#include "runtime/worker_context.h"
#include "tensor/kernel_mode.h"

namespace fedgpo {
namespace runtime {
namespace {

TEST(ThreadPool, SizeIsAtLeastOne)
{
    EXPECT_EQ(ThreadPool(0).size(), 1u);
    EXPECT_EQ(ThreadPool(1).size(), 1u);
    EXPECT_EQ(ThreadPool(4).size(), 4u);
}

TEST(ThreadPool, SubmitRunsTasksAndJoins)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([&count](std::size_t) { ++count; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    auto future =
        pool.submit([](std::size_t) { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&ran_on](std::size_t) {
            ran_on = std::this_thread::get_id();
        }).get();
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, SubmitPassesWorkerId)
{
    // Submitted tasks index per-worker scratch exactly like parallelFor
    // indices, so the id must lie in [0, size()).
    ThreadPool pool(4);
    std::vector<std::atomic<int>> runs_on(pool.size());
    for (auto &r : runs_on)
        r.store(0);
    std::atomic<int> out_of_range{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([&](std::size_t worker) {
            if (worker >= runs_on.size()) {
                ++out_of_range;
                return;
            }
            ++runs_on[worker];
        }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(out_of_range.load(), 0);
    int total = 0;
    for (const auto &r : runs_on)
        total += r.load();
    EXPECT_EQ(total, 64);

    // A serial pool runs the task before submit returns, as worker 0.
    ThreadPool serial(1);
    std::size_t seen = 99;
    auto future = serial.submit([&seen](std::size_t worker) {
        seen = worker;
    });
    EXPECT_EQ(seen, 0u);
    future.get();
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool(threads);
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(n, [&hits](std::size_t i, std::size_t worker) {
            (void)worker;
            ++hits[i];
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForWorkerIdsInRange)
{
    ThreadPool pool(3);
    const std::size_t n = 200;
    std::vector<std::size_t> worker_of(n);
    pool.parallelFor(n, [&worker_of](std::size_t i, std::size_t worker) {
        worker_of[i] = worker;
    });
    for (std::size_t w : worker_of)
        EXPECT_LT(w, pool.size());
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i, std::size_t) {
                                      if (i == 37)
                                          throw std::runtime_error("bad");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForUnderContention)
{
    // Many consecutive fan-outs reusing the same workers must neither
    // deadlock nor lose indices.
    ThreadPool pool(4);
    for (int repeat = 0; repeat < 50; ++repeat) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(64, [&sum](std::size_t i, std::size_t) {
            sum += i + 1;
        });
        EXPECT_EQ(sum.load(), 64u * 65u / 2u);
    }
}

TEST(ThreadPool, ParallelForZeroIsNoOp)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(WorkerContextPool, BuildsModelsLazilyPerWorker)
{
    int built = 0;
    WorkerContextPool contexts(3, [&built] {
        ++built;
        return models::buildModel(models::Workload::CnnMnist, 1);
    });
    EXPECT_EQ(contexts.size(), 3u);
    EXPECT_FALSE(contexts.materialized(0));

    nn::Model &m0 = *contexts.acquire(0).model;
    nn::Model &m0_again = *contexts.acquire(0).model;
    EXPECT_EQ(&m0, &m0_again) << "slot must be built once";
    EXPECT_EQ(built, 1);
    EXPECT_TRUE(contexts.materialized(0));
    EXPECT_FALSE(contexts.materialized(2));

    nn::Model &m1 = *contexts.acquire(1).model;
    EXPECT_NE(&m0, &m1) << "workers must not share scratch models";
    EXPECT_EQ(built, 2);
}

TEST(RuntimeConfig, ExplicitRequestWins)
{
    setenv("FEDGPO_THREADS", "7", 1);
    EXPECT_EQ(resolveThreads(3), 3u);
    unsetenv("FEDGPO_THREADS");
}

TEST(RuntimeConfig, EnvOverridesAuto)
{
    setenv("FEDGPO_THREADS", "7", 1);
    EXPECT_EQ(resolveThreads(0), 7u);
    setenv("FEDGPO_THREADS", "garbage", 1);
    EXPECT_GE(resolveThreads(0), 1u) << "bad env falls back to hardware";
    unsetenv("FEDGPO_THREADS");
    EXPECT_GE(resolveThreads(0), 1u);
}

// --- Determinism: the hard requirement of the execution engine. ---------

fl::FlConfig
tinyConfig(models::Workload w, std::size_t threads)
{
    fl::FlConfig config;
    config.workload = w;
    config.n_devices = 8;
    config.train_samples = 96;
    config.test_samples = 32;
    config.seed = 11;
    config.interference = true;     // exercise the variance processes too
    config.network_unstable = true;
    config.threads = threads;
    return config;
}

void
expectIdenticalResults(const fl::RoundResult &a, const fl::RoundResult &b)
{
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.dropped_straggler, b.dropped_straggler);
    EXPECT_EQ(a.dropped_diverged, b.dropped_diverged);
    EXPECT_EQ(a.samples_aggregated, b.samples_aggregated);
    // Bit-identical doubles: any reordering of float math would show here.
    EXPECT_EQ(a.round_time, b.round_time);
    EXPECT_EQ(a.energy_participants, b.energy_participants);
    EXPECT_EQ(a.energy_idle, b.energy_idle);
    EXPECT_EQ(a.energy_total, b.energy_total);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_EQ(a.test_loss, b.test_loss);
    EXPECT_EQ(a.train_loss, b.train_loss);
    ASSERT_EQ(a.participants.size(), b.participants.size());
    for (std::size_t i = 0; i < a.participants.size(); ++i) {
        const auto &pa = a.participants[i];
        const auto &pb = b.participants[i];
        EXPECT_EQ(pa.client_id, pb.client_id);
        EXPECT_EQ(pa.category, pb.category);
        EXPECT_TRUE(pa.params == pb.params);
        EXPECT_EQ(pa.samples, pb.samples);
        EXPECT_EQ(pa.dropped, pb.dropped);
        EXPECT_EQ(pa.drop_reason, pb.drop_reason);
        EXPECT_EQ(pa.update_scale, pb.update_scale);
        EXPECT_EQ(pa.train_loss, pb.train_loss);
        EXPECT_EQ(pa.cost.t_comp, pb.cost.t_comp);
        EXPECT_EQ(pa.cost.t_comm, pb.cost.t_comm);
        EXPECT_EQ(pa.cost.t_round, pb.cost.t_round);
        EXPECT_EQ(pa.cost.e_comp, pb.cost.e_comp);
        EXPECT_EQ(pa.cost.e_comm, pb.cost.e_comm);
        EXPECT_EQ(pa.cost.e_wait, pb.cost.e_wait);
        EXPECT_EQ(pa.cost.e_total, pb.cost.e_total);
    }
}

/**
 * The workload is the suite's parameter and the kernel mode the test
 * body's second input: rounds at 1 and 4 threads must be bit-identical
 * in the default and the fast-math mode alike.
 */
class DeterminismTest
    : public ::testing::TestWithParam<models::Workload>
{
  protected:
    /** Rounds at 1 and 4 threads in the kernel mode currently set. */
    void expectSerialAndFourThreadRoundsBitIdentical();
};

void
DeterminismTest::expectSerialAndFourThreadRoundsBitIdentical()
{
    fl::FlSimulator serial(tinyConfig(GetParam(), 1));
    fl::FlSimulator parallel(tinyConfig(GetParam(), 4));
    EXPECT_EQ(serial.threads(), 1u);
    EXPECT_EQ(parallel.threads(), 4u);

    const int rounds = GetParam() == models::Workload::CnnMnist ? 2 : 1;
    for (int r = 0; r < rounds; ++r) {
        fl::GlobalParams params{4, 1, 6};
        fl::RoundResult ra = serial.runRoundWithParams(params);
        fl::RoundResult rb = parallel.runRoundWithParams(params);
        expectIdenticalResults(ra, rb);
    }

    const auto wa = serial.globalModel().saveParams();
    const auto wb = parallel.globalModel().saveParams();
    ASSERT_EQ(wa.size(), wb.size());
    EXPECT_EQ(wa, wb) << "global weights must be bit-identical";
    EXPECT_EQ(serial.testAccuracy(), parallel.testAccuracy());
}

TEST_P(DeterminismTest, SerialAndFourThreadRoundsBitIdentical)
{
    expectSerialAndFourThreadRoundsBitIdentical();
}

TEST_P(DeterminismTest, FastMathSerialAndFourThreadRoundsBitIdentical)
{
    const bool was_fast = tensor::fastMath();
    tensor::setFastMath(true);
    expectSerialAndFourThreadRoundsBitIdentical();
    tensor::setFastMath(was_fast);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, DeterminismTest,
    ::testing::Values(models::Workload::CnnMnist,
                      models::Workload::LstmShakespeare,
                      models::Workload::MobileNetImageNet),
    [](const ::testing::TestParamInfo<models::Workload> &info) {
        std::string name = models::workloadName(info.param);
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name;
    });

} // namespace
} // namespace runtime
} // namespace fedgpo
