#include "runtime/thread_pool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "obs/metrics.h"

namespace fedgpo {
namespace runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
}

std::vector<double>
poolMsBounds()
{
    return {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0};
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads)
{
    tasks_counter_ = obs::counterIf(obs::Level::Basic, "pool.tasks");
    wait_hist_ = obs::histogramIf(obs::Level::Basic, "pool.queue_wait_ms",
                                  poolMsBounds());
    task_hist_ =
        obs::histogramIf(obs::Level::Basic, "pool.task_ms", poolMsBounds());
    if (obs::Gauge *g = obs::gaugeIf(obs::Level::Basic, "pool.threads"))
        g->set(static_cast<double>(threads_));
    if (threads_ <= 1)
        return;
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop(std::size_t worker_id)
{
    for (;;) {
        std::function<void(std::size_t)> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(worker_id);
    }
}

std::future<void>
ThreadPool::submit(std::function<void(std::size_t)> fn)
{
    auto task = std::make_shared<std::packaged_task<void(std::size_t)>>(
        std::move(fn));
    std::future<void> future = task->get_future();
    obs::addCount(tasks_counter_);
    if (workers_.empty()) {
        if (task_hist_ != nullptr) {
            if (wait_hist_ != nullptr)
                wait_hist_->add(0.0);
            const auto t0 = Clock::now();
            (*task)(0);
            task_hist_->add(elapsedMs(t0));
        } else {
            (*task)(0);
        }
        return future;
    }
    const bool timed = wait_hist_ != nullptr || task_hist_ != nullptr;
    const auto enqueued = timed ? Clock::now() : Clock::time_point{};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.emplace_back(
            [this, task, timed, enqueued](std::size_t worker) {
                if (!timed) {
                    (*task)(worker);
                    return;
                }
                if (wait_hist_ != nullptr)
                    wait_hist_->add(elapsedMs(enqueued));
                const auto t0 = Clock::now();
                (*task)(worker);
                if (task_hist_ != nullptr)
                    task_hist_->add(elapsedMs(t0));
            });
    }
    cv_.notify_one();
    return future;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>
                            &fn)
{
    if (n == 0)
        return;
    obs::addCount(tasks_counter_, n);
    if (workers_.empty()) {
        if (task_hist_ != nullptr) {
            if (wait_hist_ != nullptr)
                wait_hist_->add(0.0);
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i)
                fn(i, 0);
            task_hist_->add(elapsedMs(t0));
        } else {
            for (std::size_t i = 0; i < n; ++i)
                fn(i, 0);
        }
        return;
    }

    // Shared fan-out state: workers claim indices from one atomic counter
    // (no stealing, no per-index queueing) and the caller blocks until
    // every runner has drained.
    struct FanOut
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::size_t runners_left;
        std::mutex mutex;
        std::condition_variable done;
    };
    auto state = std::make_shared<FanOut>();
    const std::size_t runners = std::min(threads_, n);
    state->runners_left = runners;

    const bool timed = wait_hist_ != nullptr || task_hist_ != nullptr;
    const auto enqueued = timed ? Clock::now() : Clock::time_point{};

    auto runner = [this, state, n, &fn, timed, enqueued](std::size_t worker) {
        if (timed && wait_hist_ != nullptr)
            wait_hist_->add(elapsedMs(enqueued));
        const auto busy_start = timed ? Clock::now() : Clock::time_point{};
        while (!state->failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i, worker);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->error)
                    state->error = std::current_exception();
                state->failed.store(true, std::memory_order_relaxed);
                break;
            }
        }
        if (timed && task_hist_ != nullptr)
            task_hist_->add(elapsedMs(busy_start));
        std::lock_guard<std::mutex> lock(state->mutex);
        if (--state->runners_left == 0)
            state->done.notify_all();
    };

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t r = 0; r < runners; ++r)
            queue_.emplace_back(runner);
    }
    cv_.notify_all();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] { return state->runners_left == 0; });
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace runtime
} // namespace fedgpo
