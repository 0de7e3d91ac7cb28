#include "sim/sim_runner.hh"

#include <algorithm>
#include <cmath>

#include "cpu/ssmt_core.hh"
#include "sim/batch_runner.hh"
#include "sim/invariants.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"

namespace ssmt
{
namespace sim
{

namespace
{

/**
 * The one simulation loop. Runs @p prog under @p cfg (whose
 * maxCycles already carries any watchdog budget), restoring
 * @p resume_from first when non-empty and checkpointing into
 * @p result's artifacts after @p snapshot_at when non-zero. With a
 * null @p result nothing beyond the stats is captured, which is
 * exactly SsmtCore::run().
 */
Stats
simulate(const isa::Program &prog, const MachineConfig &cfg,
         const std::string &label, bool watchdog, uint64_t snapshot_at,
         const std::string &resume_from, BatchResult *result)
{
    cpu::SsmtCore core(prog, cfg);
    if (!resume_from.empty())
        restoreMachineSnapshot(core, prog, cfg, resume_from);

    // The external equivalent of core.run(), so the checkpoint can be
    // captured mid-run — after the target tick completes, before the
    // end-of-run finalization folds Prediction Cache reclamation into
    // the counters.
    while (!core.done() && core.cycle() < cfg.maxCycles &&
           core.retiredInsts() < cfg.maxInsts) {
        // Skip quiescent cycles, but never past the snapshot point:
        // the capture below must still observe its exact cycle.
        bool snapshot_armed = snapshot_at > 0 &&
                              core.cycle() < snapshot_at;
        core.fastForward(snapshot_armed ? snapshot_at
                                        : cfg.maxCycles);
        core.tick();
        if (snapshot_at > 0 && core.cycle() == snapshot_at) {
            result->artifacts.snapshot =
                writeMachineSnapshot(core, prog, cfg, label);
            result->artifacts.snapshotCycle = core.cycle();
        }
    }
    Stats stats = core.finish();
    if (result) {
        result->faults = core.faultStats();
        result->artifacts.series = core.series();
        result->artifacts.trace = core.trace().records();
    }

    if (watchdog && !core.done() && stats.cycles >= cfg.maxCycles &&
        stats.retiredInsts < cfg.maxInsts) {
        throw SimError(ErrorCode::WatchdogExpired, "sim_runner",
                       "run '" + label + "' did not complete within " +
                           std::to_string(cfg.maxCycles) +
                           " cycles (" +
                           std::to_string(stats.retiredInsts) +
                           " insts retired); likely hung or "
                           "underprovisioned cycle budget",
                       /*recoverable=*/true);
    }

    std::vector<InvariantViolation> violations =
        core.checkStructuralInvariants();
    for (const InvariantViolation &v : StatsChecker::check(stats))
        violations.push_back(v);
    if (!violations.empty()) {
        throw SimError(ErrorCode::InvariantViolation, "sim_runner",
                       "run '" + label + "' ended inconsistent:\n" +
                           StatsChecker::describe(violations));
    }
    return stats;
}

} // namespace

Stats
runProgramChecked(const isa::Program &prog, const MachineConfig &config,
                  const std::string &label)
{
    config.validateOrThrow();
    return simulate(prog, config, label, false, 0, std::string(),
                    nullptr);
}

namespace detail
{

bool
runAttempt(const BatchJob &job, const BatchPolicy &policy,
           unsigned attempt, std::string &checkpoint,
           BatchResult &result)
{
    result.attempts = attempt + 1;
    result.artifacts = RunArtifacts{};
    try {
        // A watchdog checkpoint from the previous attempt wins over
        // the job's own starting point.
        bool resuming = policy.resumeOnWatchdog && !checkpoint.empty();
        const std::string &resume_from =
            resuming ? checkpoint : job.resumeFrom;
        MachineConfig config = job.config;
        // A restored run keeps its fault seed: the snapshot carries
        // the fault RNG stream and the fingerprint pins the seed.
        if (resume_from.empty() && config.faults.enabled()) {
            config.faults.seed =
                BatchRunner::retrySeed(job.config.faults.seed, attempt);
        }
        config.validateOrThrow();
        uint64_t budget = policy.cycleBudget;
        uint64_t snapshot_at = job.snapshotAtCycle;
        if (policy.resumeOnWatchdog && policy.cycleBudget > 0) {
            // Each slice extends the absolute budget; checkpoint
            // exactly at the boundary so a tripped watchdog leaves a
            // resumable snapshot in the artifacts.
            budget = policy.cycleBudget * (attempt + 1);
            snapshot_at = std::min(config.maxCycles, budget);
        }
        if (budget > 0)
            config.maxCycles = std::min(config.maxCycles, budget);
        result.stats = simulate(job.program, config, job.name,
                                budget > 0, snapshot_at, resume_from,
                                &result);
        result.error.clear();
        result.errorCode = ErrorCode::None;
        return true;
    } catch (const SimError &err) {
        result.error = err.what();
        result.errorCode = err.code();
        if (policy.resumeOnWatchdog &&
            err.code() == ErrorCode::WatchdogExpired &&
            !result.artifacts.snapshot.empty()) {
            checkpoint = std::move(result.artifacts.snapshot);
        }
        return !err.recoverable();
    } catch (const std::exception &err) {
        result.error = err.what();
        result.errorCode = ErrorCode::Internal;
        return true;
    } catch (...) {
        result.error = "unknown exception";
        result.errorCode = ErrorCode::Internal;
        return true;
    }
}

} // namespace detail

double
speedup(const Stats &test, const Stats &baseline)
{
    SSMT_ASSERT(baseline.ipc() > 0.0, "baseline run made no progress");
    return test.ipc() / baseline.ipc();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace sim
} // namespace ssmt
