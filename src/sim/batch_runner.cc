#include "sim/batch_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "sim/jobs.hh"
#include "sim/logging.hh"
#include "sim/proc_runner.hh"
#include "sim/taskrt.hh"

namespace ssmt
{
namespace sim
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

const char *
crashKindName(CrashKind kind)
{
    switch (kind) {
      case CrashKind::None:  return "none";
      case CrashKind::Segv:  return "segv";
      case CrashKind::Abort: return "abort";
      case CrashKind::Oom:   return "oom";
      case CrashKind::Hang:  return "hang";
      case CrashKind::Exit:  return "exit";
    }
    return "?";
}

bool
parseCrashKind(const std::string &name, CrashKind *out)
{
    for (int i = 0; i <= static_cast<int>(CrashKind::Exit); i++) {
        CrashKind kind = static_cast<CrashKind>(i);
        if (name == crashKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

BatchRunner::BatchRunner(unsigned jobs) : jobs_(resolveJobs(jobs))
{
}

void
BatchRunner::forEach(size_t n, const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;
    if (jobs_ <= 1 || n == 1) {
        // Serial degenerate case: same thread, same order, and
        // exceptions propagate naturally — without ever starting
        // the shared pool.
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    TaskRuntime &rt = TaskRuntime::shared();
    rt.ensureWorkers(jobs_);
    rt.forEach(n, fn, jobs_);
}

uint64_t
BatchRunner::retrySeed(uint64_t seed, unsigned attempt)
{
    if (attempt == 0)
        return seed;
    // splitmix64-style mix of (seed, attempt): deterministic,
    // attempt-distinct, and never 0 (FaultPlan seeds must be
    // non-zero).
    uint64_t x = seed + attempt * 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x ? x : 1;
}

std::string
BatchRunner::failureSummary(const std::vector<BatchJob> &batch,
                            const std::vector<BatchResult> &results)
{
    std::string out;
    for (size_t i = 0; i < results.size(); i++) {
        const BatchResult &result = results[i];
        if (result.ok())
            continue;
        std::string name =
            i < batch.size() ? batch[i].name : std::to_string(i);
        out += name + ": [" + errorCodeName(result.errorCode) +
               "] after " + std::to_string(result.attempts) +
               " attempt" + (result.attempts == 1 ? "" : "s") + ": " +
               result.error + "\n";
    }
    return out;
}

std::vector<BatchResult>
BatchRunner::run(const std::vector<BatchJob> &batch,
                 const BatchPolicy &policy,
                 const ResultHook &onResult) const
{
    if (policy.isolate)
        return runBatchIsolated(batch, policy, jobs_, onResult);

    std::vector<BatchResult> results(batch.size());
    forEach(batch.size(), [&](size_t i) {
        if (policy.cancel &&
            policy.cancel->load(std::memory_order_relaxed)) {
            // Leave the default slot (attempts == 0): the job was
            // never started, and onResult must not see it.
            return;
        }
        BatchResult &result = results[i];
        auto start = std::chrono::steady_clock::now();
        if (batch[i].crash != CrashKind::None) {
            // Crash injection only makes sense where the blast
            // radius is one child process.
            result.attempts = 1;
            result.errorCode = ErrorCode::ConfigInvalid;
            result.error =
                std::string("[config-invalid] batch: crash "
                            "injection ('") +
                crashKindName(batch[i].crash) +
                "') requires isolate mode";
        } else {
            auto warnBase = ssmt::detail::warnSiteCounts();
            // Checkpoint harvested from a watchdog-expired attempt;
            // a non-empty value turns the next attempt into a
            // resume.
            std::string checkpoint;
            for (unsigned attempt = 0; attempt <= policy.maxRetries;
                 attempt++) {
                if (attempt > 0 && policy.backoffMs > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            policy.backoffMs
                            << std::min(attempt - 1, 16u)));
                }
                if (detail::runAttempt(batch[i], policy, attempt,
                                       checkpoint, result))
                    break;
            }
            result.warnings = ssmt::detail::warnSiteDelta(
                warnBase, ssmt::detail::warnSiteCounts());
        }
        result.hostSeconds = secondsSince(start);
        if (!result.ok()) {
            SSMT_WARN("batch job '" + batch[i].name + "' failed: " +
                      result.error);
        }
        if (onResult)
            onResult(i, result);
    });
    return results;
}

} // namespace sim
} // namespace ssmt
