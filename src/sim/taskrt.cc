#include "sim/taskrt.hh"

#include <algorithm>
#include <exception>

#include "sim/jobs.hh"

namespace ssmt
{
namespace sim
{

namespace
{

/** True on pool worker threads (of any pool): forEach from a worker
 *  must run serially, since blocking it on the pool it occupies could
 *  deadlock. */
thread_local bool tls_in_pool = false;

/** The shared pool once shared() has built it; ForkGuard reads it so
 *  that quiescing never *creates* a pool. */
std::atomic<TaskRuntime *> g_shared{nullptr};

} // namespace

TaskRuntime::TaskRuntime(unsigned workers)
{
    ensureWorkers(workers > 0 ? workers : resolveJobs(0));
}

TaskRuntime::~TaskRuntime()
{
    {
        std::lock_guard<std::mutex> l(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
TaskRuntime::ensureWorkers(unsigned want)
{
    want = std::min(want, kMaxWorkers);
    std::lock_guard<std::mutex> l(mutex_);
    if (stop_)
        return;
    while (threads_.size() < want)
        threads_.emplace_back([this] { workerMain(); });
    workerCount_.store(static_cast<unsigned>(threads_.size()),
                       std::memory_order_release);
}

void
TaskRuntime::workerMain()
{
    tls_in_pool = true;
    std::unique_lock<std::mutex> l(mutex_);
    for (;;) {
        workCv_.wait(l, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return;     // stopping, and nothing left to run
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        l.unlock();
        {
            std::shared_lock<std::shared_mutex> exec(execMutex_);
            task();
        }
        l.lock();
    }
}

void
TaskRuntime::forEach(size_t n, const std::function<void(size_t)> &fn,
                     unsigned maxParallel)
{
    if (n == 0)
        return;
    unsigned cap = maxParallel > 0 ? maxParallel : workers();
    cap = std::min(cap, workers());
    if (n == 1 || cap <= 1 || tls_in_pool) {
        // Serial path: exception-transparent, and the only safe
        // shape when the caller is itself a pool worker.
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }

    const unsigned spawn =
        static_cast<unsigned>(std::min<size_t>(cap, n));
    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(n);

    // Completion latch. The last loop signals while holding
    // latch_mutex, so this frame cannot return (destroying the latch,
    // `next` and `errors`) until the worker is done touching them.
    std::mutex latch_mutex;
    std::condition_variable latch_cv;
    unsigned running = spawn;

    auto loop = [&] {
        // Ticket loop: each index is claimed exactly once, and
        // outputs keyed by index land in the same slots at any
        // parallelism.
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        std::lock_guard<std::mutex> l(latch_mutex);
        if (--running == 0)
            latch_cv.notify_one();
    };
    {
        std::lock_guard<std::mutex> l(mutex_);
        for (unsigned w = 0; w < spawn; w++)
            queue_.emplace_back(loop);
    }
    for (unsigned w = 0; w < spawn; w++)
        workCv_.notify_one();
    {
        std::unique_lock<std::mutex> l(latch_mutex);
        latch_cv.wait(l, [&] { return running == 0; });
    }

    for (size_t i = 0; i < n; i++) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

TaskRuntime &
TaskRuntime::shared()
{
    // Leaked deliberately: workers may outlive main()'s static
    // destruction order otherwise.
    static TaskRuntime *const rt = [] {
        TaskRuntime *pool = new TaskRuntime(resolveJobs(0));
        g_shared.store(pool, std::memory_order_release);
        return pool;
    }();
    return *rt;
}

TaskRuntime::ForkGuard::ForkGuard()
    : rt_(g_shared.load(std::memory_order_acquire))
{
    if (rt_)
        rt_->execMutex_.lock();     // waits out in-flight tasks
}

TaskRuntime::ForkGuard::~ForkGuard()
{
    if (rt_)
        rt_->execMutex_.unlock();
}

} // namespace sim
} // namespace ssmt
