/**
 * @file
 * The checks and the per-layer measurements, taken from outside each
 * layer by timing calls into its public functions.
 *
 *  - referencePass: every cell of the workload's fixed cell list run
 *    once more, in-process, to produce the reference its timed
 *    outputs must match; the architectural checks; the exact
 *    simulated counts; and (traced runs) the whole-run timings of
 *    the cpu, workloads and sim layers.
 *  - replayLayers: each proxy's streams captured once from the
 *    functional ISA and replayed through isa, bpred, memory, vpred
 *    and core (traced runs).
 *  - serviceLayers / toolsLayers: the campaign store, journal,
 *    manifest, codec, task runtime, process isolation and server
 *    client costs on the cells the workload itself uses (traced
 *    runs).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "server_client.hh"
#include "sim/batch_runner.hh"
#include "spans.hh"

namespace perfbench
{

/** What a cell's outputs must equal. */
struct Reference
{
    uint64_t statsHash = 0;   ///< of the direct SsmtCore run
    uint64_t docHash = 0;     ///< of the in-process BatchRunner doc
    ssmt::sim::BatchResult result;
};

/**
 * Run every cell in-process and check it: final architectural
 * registers and retired count equal isa::run of the same program, and
 * (with @p docs) the BatchRunner result's counters equal the direct
 * run's. Also records the exact counts and the stats digest, and, on
 * traced runs, the whole-run layer timings (serially, so the timings
 * see an idle host). Untraced runs use @p threads workers.
 */
std::vector<Reference> referencePass(const std::vector<Cell> &cells,
                                     bool docs, bool trace,
                                     unsigned threads, Spans *spans,
                                     RunRecord &rec);

/** Byte-compare each microthread cell's golden document against
 *  `<golden_dir>/<proxy>.json`. A failed check, here and in
 *  referencePass, zeroes the cell's expected hashes so every
 *  operation that produced the cell counts as failed. */
void checkGolden(const std::vector<Cell> &cells,
                 std::vector<Reference> &refs,
                 const std::string &golden_dir, RunRecord &rec);

/** Stream replays through isa, bpred, memory, vpred and core, plus
 *  the makeWorkload timing, over the proxies of @p cells. */
void replayLayers(const std::vector<Cell> &cells,
                  const std::vector<Reference> &refs, Spans *spans,
                  RunRecord &rec);

/** Store, journal, manifest, codec, taskrt and proc_runner costs on
 *  @p cells' results; scratch files go under @p dir. */
void serviceLayers(const std::vector<Cell> &cells,
                   const std::vector<Reference> &refs,
                   const std::string &dir, Spans *spans, RunRecord &rec);

/** Server gauges and (unless @p have_client_spans) client-side
 *  request timings, measured against @p server. */
void toolsLayers(ServerProcess &server, const std::vector<Cell> &cells,
                 bool have_client_spans, Spans *spans, RunRecord &rec);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
