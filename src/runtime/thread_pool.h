/**
 * @file
 * Fixed-size thread pool for the deterministic parallel execution engine.
 *
 * Deliberately work-stealing-free: tasks are claimed from a single shared
 * counter/queue so scheduling is simple to reason about, and callers are
 * expected to make results scheduling-independent (each parallelFor index
 * writes only its own slot, randomness is pre-split before dispatch).
 */

#ifndef FEDGPO_RUNTIME_THREAD_POOL_H_
#define FEDGPO_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace fedgpo {

namespace obs {
class Counter;
class Histogram;
} // namespace obs

namespace runtime {

/**
 * A fixed-size pool of worker threads.
 *
 * With size() <= 1 no threads are spawned at all and every task runs
 * inline on the calling thread (as worker 0), so the serial configuration
 * has zero synchronization overhead — campaign loops on small hosts pay
 * nothing for the parallel machinery.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (none when threads <= 1). */
    explicit ThreadPool(std::size_t threads);

    /** Joins all workers; pending submitted tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured worker count (>= 1; 1 means inline execution). */
    std::size_t size() const { return threads_; }

    /**
     * Enqueue one task. It receives the id of the worker that runs it, in
     * [0, size()), so it can index per-worker scratch state
     * (WorkerContext) like a parallelFor index. With size() == 1 the task
     * has already run inline, as worker 0, when submit returns. The
     * future completes when the task returns and carries any exception it
     * threw.
     */
    std::future<void> submit(std::function<void(std::size_t)> fn);

    /**
     * Run fn(i, worker) for every i in [0, n), fanning out across the
     * pool, and block until all indices finished. `worker` identifies the
     * executing worker in [0, size()) and is stable for the duration of
     * one call, so it can index per-worker scratch state (WorkerContext).
     *
     * Each index is claimed exactly once. If a call throws, the first
     * exception is rethrown on the caller after all workers stop;
     * indices not yet claimed at that point are skipped. Never call it
     * from one of the pool's own workers: with no work stealing, the
     * nested wait can starve.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)> &fn);

  private:
    void workerLoop(std::size_t worker_id);

    std::size_t threads_;
    // Observability probes, resolved once at construction; all null when
    // metrics are off, in which case no clocks are read on any path.
    obs::Counter *tasks_counter_ = nullptr;
    obs::Histogram *wait_hist_ = nullptr;
    obs::Histogram *task_hist_ = nullptr;
    std::vector<std::thread> workers_;
    // Tasks receive the id of the worker that runs them.
    std::deque<std::function<void(std::size_t)>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace runtime
} // namespace fedgpo

#endif // FEDGPO_RUNTIME_THREAD_POOL_H_
