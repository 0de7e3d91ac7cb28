/**
 * @file
 * Run one program on a configured machine, and compare modes the way
 * the paper's figures do. sim_runner.cc also holds
 * detail::runAttempt, BatchRunner's per-attempt step, so the plain
 * call and every batch share one simulation loop.
 */

#ifndef SSMT_SIM_SIM_RUNNER_HH
#define SSMT_SIM_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "isa/program.hh"
#include "sim/machine_config.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace ssmt
{
namespace sim
{

/** Observability captures produced by a run when the corresponding
 *  MachineConfig knobs are set; empty (and cheap) otherwise. */
struct RunArtifacts
{
    /** Interval time-series (cfg.sampleInterval > 0). */
    MetricsSeries series;
    /** Bounded pipeline-event capture (cfg.traceCapacity > 0),
     *  oldest first; feed to cpu::chromeTraceJson() for Perfetto. */
    std::vector<cpu::TraceRecord> trace;
    /** ssmt-snapshot-v1 document captured at @ref snapshotCycle when
     *  the job asked for a checkpoint (BatchJob::snapshotAtCycle, or
     *  BatchPolicy::resumeOnWatchdog's slice boundary); empty
     *  otherwise. Captured even when the run later trips the
     *  watchdog, so a resumable batch can continue from it. */
    std::string snapshot;
    uint64_t snapshotCycle = 0;
};

/**
 * Run @p prog to completion under @p config and return the stats.
 * Every failure is a SimError the caller can record instead of
 * dying:
 *  - ConfigInvalid (non-recoverable) from MachineConfig::validate(),
 *  - InvariantViolation (non-recoverable) when the end-of-run
 *    StatsChecker or structural self-check trips; a simulator bug
 *    must never flow into a results table.
 *
 * @p label names the run in error context strings. Run control —
 * cycle budgets, retries, checkpoints, resume, fault and artifact
 * capture — lives in BatchJob + BatchPolicy and runs through
 * BatchRunner::run (sim/batch_runner.hh); this call copies nothing
 * and is what a host-speed benchmark should time.
 */
Stats runProgramChecked(const isa::Program &prog,
                        const MachineConfig &config,
                        const std::string &label);

/** IPC speed-up of @p test over @p baseline, as plotted in the
 *  paper's Figures 6 and 7 (1.0 = no change). */
double speedup(const Stats &test, const Stats &baseline);

/** Geometric mean (the conventional average for speed-ups). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_SIM_RUNNER_HH
