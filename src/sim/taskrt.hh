/**
 * @file
 * taskrt: the process-wide worker pool under every parallel consumer.
 *
 * Every parallel workload in this repository is a grid of independent
 * cells (workload x mode x seed, each an isolated SsmtCore), so the
 * only primitive it needs is a capped parallel-for. TaskRuntime is a
 * fixed-width pool of long-lived workers fed from one FIFO queue:
 * forEach() queues min(cap, n) ticket-loop closures, each of which
 * claims indices from a shared atomic counter until the range is
 * exhausted, then blocks the caller until every closure has finished.
 * Concurrent forEach() calls (two campaigns in one ssmt_server) share
 * the same workers instead of oversubscribing the host.
 *
 * Determinism contract: scheduling affects only *completion order*.
 * Every consumer keys its outputs by index (BatchRunner result slots,
 * campaign cell keys, bench matrix cells), so results, retry seeds
 * and manifest bytes are identical at any worker count or
 * interleaving.
 *
 * Blocking rule: forEach() detects being called from a pool worker
 * and degrades to the serial path instead of deadlocking.
 */

#ifndef SSMT_SIM_TASKRT_HH
#define SSMT_SIM_TASKRT_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace ssmt
{
namespace sim
{

/**
 * The worker pool (see file header). Construct directly for an
 * isolated pool (tests), or use shared() — the instance every
 * BatchRunner, campaign and bench consumer multiplexes onto.
 */
class TaskRuntime
{
  public:
    /** @param workers 0 = resolveJobs(0) (SSMT_JOBS, then cores). */
    explicit TaskRuntime(unsigned workers = 0);
    ~TaskRuntime();

    TaskRuntime(const TaskRuntime &) = delete;
    TaskRuntime &operator=(const TaskRuntime &) = delete;

    unsigned workers() const
    {
        return workerCount_.load(std::memory_order_acquire);
    }

    /** Grow the pool to @p want workers (never shrinks; clamped to
     *  kMaxWorkers). Running work is not disturbed. */
    void ensureWorkers(unsigned want);

    /**
     * Deterministic parallel-for: fn(i) for every i in [0, n), at
     * most @p maxParallel invocations in flight (0 = pool size).
     * Exceptions are captured per index and the lowest-indexed one
     * rethrown after all indices drain. Serial (and exception-
     * transparent) when the cap is 1, n is 1, or the caller is itself
     * a pool worker.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn,
                 unsigned maxParallel = 0);

    /** The process-wide pool, started on first use with
     *  resolveJobs(0) workers and deliberately leaked at exit. */
    static TaskRuntime &shared();

    /**
     * RAII quiesce for fork(): blocks new task execution on the
     * shared pool (if one has started; never starts one) and waits
     * for in-flight tasks to finish, so a child forked under the
     * guard never inherits a worker mid-task (with locks held).
     * proc_runner holds one for the duration of an isolated batch.
     */
    class ForkGuard
    {
      public:
        ForkGuard();
        ~ForkGuard();
        ForkGuard(const ForkGuard &) = delete;
        ForkGuard &operator=(const ForkGuard &) = delete;

      private:
        TaskRuntime *rt_;
    };

  private:
    /** Hard cap on pool size; requests beyond it are clamped. */
    static constexpr unsigned kMaxWorkers = 256;

    std::mutex mutex_;      ///< guards queue_, threads_, stop_
    std::condition_variable workCv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    bool stop_ = false;
    std::atomic<unsigned> workerCount_{0};

    /** Workers run each task under a shared lock, so ForkGuard can
     *  drain them with one exclusive acquire. */
    std::shared_mutex execMutex_;

    void workerMain();
};

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_TASKRT_HH
