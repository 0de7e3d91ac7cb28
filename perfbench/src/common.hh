/**
 * @file
 * Shared pieces of the benchmark driver: options, the raw run record
 * handed to perfbench/run.py, clocks and hashing.
 *
 * The driver only measures and checks. It reports raw integer
 * samples (nanoseconds, counts); every derived figure — medians,
 * percentiles, geomeans, rates — is computed once, in
 * perfbench/metrics.py, so the arithmetic has a single tested home.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "sim/machine_config.hh"
#include "sim/stats.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string repoRoot;     ///< checkout root (golden/ lives here)
    std::string serverBin;    ///< ssmt_server executable
    std::string workDir;      ///< fresh private directory for this run
    std::string out;          ///< raw record destination
    std::string traceOut;     ///< span dump destination (trace runs)
};

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64: derives every seeded choice from the run seed. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

inline uint64_t
fnv1a(const void *data, size_t n, uint64_t hash = 0xcbf29ce484222325ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

inline uint64_t
fnv1a(const std::string &text, uint64_t hash = 0xcbf29ce484222325ull)
{
    return fnv1a(text.data(), text.size(), hash);
}

/** Hash of every Stats counter, in flattenStats order. */
uint64_t statsHash(const ssmt::sim::Stats &stats);

/** Operation kinds; the numeric value is the wire code. */
enum class OpKind : uint64_t
{
    Cell = 0,   ///< one runProgramChecked call (sim-* workloads)
    Batch = 1,  ///< served `batch` request
    Fresh = 2,  ///< campaign request that simulates every cell
    Hit = 3     ///< campaign request served from the result store
};

/** One output of an operation, checked against the reference. */
struct Output
{
    uint32_t index = 0;     ///< into the workload's expected hashes
    uint64_t hash = 0;
    bool fresh = false;     ///< simulated now (not served from store)
};

/** One timed operation of a workload's loop. */
struct Op
{
    OpKind kind = OpKind::Cell;
    uint64_t ns = 0;
    uint64_t insts = 0;        ///< primary insts freshly simulated
    uint64_t freshCells = 0;
    uint64_t cachedCells = 0;
    uint64_t key = 0;          ///< proxy index (Cell ops)
    uint64_t bytes = 0;        ///< reply bytes (served requests)
    bool ok = true;
    std::string error;         ///< why the operation failed
    std::vector<Output> outputs;
};

/** What one timed loop produced. */
struct LoopRecord
{
    std::vector<Op> ops;
    std::vector<uint64_t> passNs;   ///< one schedule pass each
    uint64_t loopNs = 0;
};

/** One cell of a workload's fixed cell list: what its checks, its
 *  exact counts and its whole-run layer timings are taken over. */
struct Cell
{
    std::string label;          ///< "<proxy>/<mode>"
    std::string proxy;
    const ssmt::isa::Program *program = nullptr;
    ssmt::sim::MachineConfig config;
};

/** Everything the driver reports for one run. */
struct RunRecord
{
    std::vector<uint64_t> setupNs;
    LoopRecord loop;            ///< untraced (end-to-end metrics)
    LoopRecord tracedLoop;      ///< trace runs only
    uint64_t peakRssKb = 0;
    uint64_t checks = 0;        ///< output checks made
    uint64_t failed = 0;        ///< of which failed
    std::vector<std::string> failures;  ///< the first few, for stderr
    std::string digest;         ///< hash of every counter of every cell
    std::vector<std::pair<std::string, uint64_t>> layerValues;
    std::vector<std::pair<std::string, std::vector<uint64_t>>>
        layerSamples;

    void fail(const std::string &what);
    void value(const std::string &name, uint64_t v);
    void samples(const std::string &name, std::vector<uint64_t> v);
};

/** Peak RSS of this process. */
uint64_t peakRssKb();

/** A field (e.g. "VmHWM") of /proc/<pid>/status, in kB; 0 if absent. */
uint64_t procStatusKb(long pid, const char *field);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
