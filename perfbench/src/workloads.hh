/**
 * @file
 * The benchmark's three workloads. Each one owns its inputs (fixed;
 * the run seed only orders them), its timed set-up, its timed loop,
 * its output checks and its per-layer probes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>

#include "common.hh"
#include "spans.hh"

namespace perfbench
{

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Timed set-ups (rec.setupNs) plus untimed preparation. */
    virtual void setup(RunRecord &rec) = 0;
    /** One closed-loop measurement of about @p seconds. */
    virtual void loop(double seconds, Spans *spans, LoopRecord &out) = 0;
    /** Reference pass, output checks, exact counts; on traced runs
     *  also the whole-run layer timings. */
    virtual void check(RunRecord &rec, Spans *spans) = 0;
    /** Per-layer probes (traced runs only). */
    virtual void probes(RunRecord &rec, Spans &spans) = 0;
    /** Peak RSS so far of the processes the workload runs in: the
     *  driver, plus its server. */
    virtual uint64_t memoryPeakKb() const = 0;
};

/** @return nullptr (with @p err set) for an unknown workload name. */
std::unique_ptr<BenchWorkload> makeBenchWorkload(const Options &opts,
                                                 std::string *err);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
