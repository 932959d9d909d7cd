/**
 * @file
 * Per-worker scratch state for parallel client training.
 *
 * FedAvg's ClientUpdate needs a model pre-loaded with the global weights;
 * training K clients concurrently therefore needs one scratch model per
 * worker, not per fleet. The pool builds them lazily from a factory so a
 * serial run (or a round with few participants) never pays for models it
 * does not touch.
 */

#ifndef FEDGPO_RUNTIME_WORKER_CONTEXT_H_
#define FEDGPO_RUNTIME_WORKER_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/model.h"

namespace fedgpo {
namespace runtime {

/**
 * Scratch state owned by one pool worker.
 */
struct WorkerContext
{
    std::unique_ptr<nn::Model> model; //!< scratch model for ClientUpdate
};

/**
 * Lazily materialized pool of WorkerContext, one slot per worker id.
 *
 * acquire() is thread-safe; each slot is built at most once. The returned
 * reference stays valid for the pool's lifetime (slots never move). A
 * slot belongs to the worker running a ThreadPool::parallelFor index or a
 * ThreadPool::submit task, identified by the worker id the pool passes
 * it; no other thread may use that slot meanwhile. A worker runs one
 * index or task at a time, which is what makes per-slot scratch state
 * safe without any locking on the training path.
 */
class WorkerContextPool
{
  public:
    using ModelFactory = std::function<std::unique_ptr<nn::Model>()>;

    /**
     * @param workers Number of slots (ThreadPool::size()).
     * @param factory Builds one scratch model; invoked under the pool
     *                lock, at most once per slot.
     */
    WorkerContextPool(std::size_t workers, ModelFactory factory);

    /** Slot count. */
    std::size_t size() const { return slots_.size(); }

    /** Context for the given worker id, building it on first use. */
    WorkerContext &acquire(std::size_t worker);

    /** True when the slot has been materialized (for tests/introspection). */
    bool materialized(std::size_t worker) const;

  private:
    ModelFactory factory_;
    std::vector<std::unique_ptr<WorkerContext>> slots_;
    mutable std::mutex mutex_;
};

} // namespace runtime
} // namespace fedgpo

#endif // FEDGPO_RUNTIME_WORKER_CONTEXT_H_
