#include "layers.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "bpred/direction_predictor.hh"
#include "core/path_cache.hh"
#include "core/path_tracker.hh"
#include "cpu/ssmt_core.hh"
#include "isa/executor.hh"
#include "isa/memory_image.hh"
#include "memory/hierarchy.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/job_codec.hh"
#include "sim/sim_error.hh"
#include "sim/sim_runner.hh"
#include "vpred/value_predictor.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace ssmt;

uint64_t
statsHash(const sim::Stats &stats)
{
    std::vector<uint64_t> values = sim::statsValues(stats);
    return fnv1a(values.data(), values.size() * sizeof(uint64_t));
}

namespace
{

// Defeats dead-code elimination of replayed results.
volatile uint64_t g_sink = 0;

/** Median over @p reps calls of @p fn, which returns the ns it
 *  timed (so each call can keep its set-up out of the window). */
template <typename Fn>
uint64_t
medianNs(int reps, Fn &&fn)
{
    std::vector<uint64_t> t;
    for (int r = 0; r < reps; r++)
        t.push_back(fn());
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

bool
usesMicrothreads(sim::Mode mode)
{
    return mode == sim::Mode::Microthread ||
           mode == sim::Mode::MicrothreadNoPredictions;
}

void
recordCounts(const std::vector<Cell> &cells,
             const std::vector<Reference> &refs, RunRecord &rec)
{
    sim::Stats sum;
    uint64_t digest = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < cells.size(); i++) {
        const sim::Stats &s = refs[i].result.stats;
        digest = fnv1a(cells[i].label, digest);
        for (const auto &[name, value] : sim::flattenStats(s)) {
            digest = fnv1a(name, digest);
            digest = fnv1a(&value, sizeof(value), digest);
        }
        sum.cycles += s.cycles;
        sum.retiredInsts += s.retiredInsts;
        sum.fetchBubbleCycles += s.fetchBubbleCycles;
        sum.condHwMispredicts += s.condHwMispredicts;
        sum.usedMispredicts += s.usedMispredicts;
        sum.l1dMisses += s.l1dMisses;
        sum.l2Misses += s.l2Misses;
        sum.spawnAttempts += s.spawnAttempts;
        sum.spawns += s.spawns;
        sum.abortsPostSpawn += s.abortsPostSpawn;
        sum.microOpsExecuted += s.microOpsExecuted;
        sum.promotionsCompleted += s.promotionsCompleted;
        sum.pcacheLookupHits += s.pcacheLookupHits;
        sum.predEarly += s.predEarly;
        sum.predLate += s.predLate;
        sum.predUseless += s.predUseless;
        sum.predNeverReached += s.predNeverReached;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    rec.digest = hex;
    rec.value("cpu.cycles", sum.cycles);
    rec.value("cpu.retired_insts", sum.retiredInsts);
    rec.value("cpu.fetch_bubble_cycles", sum.fetchBubbleCycles);
    rec.value("bpred.cond_mispredicts", sum.condHwMispredicts);
    rec.value("bpred.used_mispredicts", sum.usedMispredicts);
    rec.value("memory.l1d_misses", sum.l1dMisses);
    rec.value("memory.l2_misses", sum.l2Misses);
    rec.value("core.spawn_attempts", sum.spawnAttempts);
    rec.value("core.spawns", sum.spawns);
    rec.value("core.aborts_post_spawn", sum.abortsPostSpawn);
    rec.value("core.micro_ops", sum.microOpsExecuted);
    rec.value("core.promotions", sum.promotionsCompleted);
    rec.value("core.pcache_hits", sum.pcacheLookupHits);
    rec.value("core.pred_early", sum.predEarly);
    rec.value("core.pred_late", sum.predLate);
    rec.value("core.pred_useless", sum.predUseless);
    rec.value("core.pred_never_reached", sum.predNeverReached);
}

} // namespace

std::vector<Reference>
referencePass(const std::vector<Cell> &cells, bool docs, bool trace,
              unsigned threads, Spans *spans, RunRecord &rec)
{
    const size_t n = cells.size();
    std::vector<Reference> refs(n);
    std::vector<std::string> errors(n);
    std::vector<uint64_t> construct_ns(n), run_ns(n), checked_ns(n);

    auto one = [&](size_t i) {
        const Cell &cell = cells[i];
        SpanScope span(spans, "cpu.reference_cell", i);
        try {
            uint64_t t0 = nowNs();
            auto core =
                std::make_unique<cpu::SsmtCore>(*cell.program, cell.config);
            uint64_t t1 = nowNs();
            const sim::Stats &stats = core->run();
            uint64_t t2 = nowNs();
            construct_ns[i] = t1 - t0;
            run_ns[i] = t2 - t1;
            refs[i].statsHash = statsHash(stats);
            refs[i].result.stats = stats;
            refs[i].result.attempts = 1;

            // The timing model executes at fetch, so once a halted run
            // has drained, its architectural state must be exactly the
            // functional ISA's after the same number of instructions.
            // A run that did not halt must have used up its budget.
            if (core->done()) {
                isa::RegFile regs;
                isa::MemoryImage mem;
                cell.program->loadData(mem);
                uint64_t executed = isa::run(*cell.program, regs, mem,
                                             cell.config.maxInsts);
                if (!(regs == core->archRegs()))
                    errors[i] += "final archRegs differ from isa::run; ";
                if (executed != stats.retiredInsts) {
                    errors[i] += "retired " +
                                 std::to_string(stats.retiredInsts) +
                                 " insts, isa::run executed " +
                                 std::to_string(executed) + "; ";
                }
            } else if (stats.retiredInsts < cell.config.maxInsts) {
                errors[i] += "stopped before halting or reaching its "
                             "instruction budget; ";
            }
            core.reset();

            if (docs) {
                sim::BatchJob job;
                job.name = cell.label;
                job.program = *cell.program;
                job.config = cell.config;
                std::vector<sim::BatchResult> out =
                    sim::BatchRunner(1).run({job});
                if (!out[0].ok())
                    errors[i] += "in-process run failed: " + out[0].error;
                if (statsHash(out[0].stats) != refs[i].statsHash)
                    errors[i] += "BatchRunner counters differ from the "
                                 "direct run; ";
                refs[i].docHash =
                    fnv1a(sim::encodeJobResult(out[0], "", true));
                refs[i].result = std::move(out[0]);
            }
            if (trace) {
                uint64_t t3 = nowNs();
                sim::runProgramChecked(*cell.program, cell.config,
                                       cell.label);
                checked_ns[i] = nowNs() - t3;
            }
        } catch (const std::exception &e) {
            errors[i] += std::string("exception: ") + e.what();
        }
    };
    if (trace || threads <= 1) {
        for (size_t i = 0; i < n; i++)
            one(i);
    } else {
        sim::BatchRunner(threads).forEach(n, one);
    }

    for (size_t i = 0; i < n; i++) {
        rec.checks += docs ? 3 : 2;
        if (!errors[i].empty()) {
            rec.fail(cells[i].label + ": " + errors[i]);
            refs[i].statsHash = refs[i].docHash = 0;   // fails its ops
        }
    }
    recordCounts(cells, refs, rec);

    if (trace) {
        uint64_t construct = 0, run = 0, checked = 0;
        for (size_t i = 0; i < n; i++) {
            construct += construct_ns[i];
            run += run_ns[i];
            checked += checked_ns[i];
        }
        rec.value("wholerun.cells", n);
        rec.value("wholerun.construct_ns", construct);
        rec.value("wholerun.run_ns", run);
        rec.value("wholerun.checked_ns", checked);
    }
    return refs;
}

void
checkGolden(const std::vector<Cell> &cells, std::vector<Reference> &refs,
            const std::string &golden_dir, RunRecord &rec)
{
    for (size_t i = 0; i < cells.size(); i++) {
        if (cells[i].config.mode != sim::Mode::Microthread)
            continue;
        sim::GoldenRun run;
        run.workload = cells[i].proxy;
        run.stats = refs[i].result.stats;
        const std::string path =
            golden_dir + "/" + sim::goldenFileName(cells[i].proxy);
        rec.checks++;
        if (sim::goldenJson(run) != sim::readFileOrEmpty(path)) {
            rec.fail(cells[i].label + ": golden document differs from " +
                     path);
            refs[i].statsHash = refs[i].docHash = 0;
        }
    }
}

namespace
{

/** One proxy's dynamic streams, captured from the functional ISA. */
struct Streams
{
    struct Branch
    {
        uint64_t pc;
        bool taken;
    };
    struct Control
    {
        uint64_t pc;
        bool taken;
        bool terminating;
        bool conditional;
    };
    enum MemKind : uint8_t { Fetch, Read, Write };
    struct Access
    {
        uint64_t addr;
        MemKind kind;
    };
    struct Train
    {
        uint64_t pc;
        uint64_t value;
        bool address;   ///< address predictor, else value predictor
    };
    std::vector<Branch> cond;
    std::vector<Control> control;
    std::vector<Access> mem;
    std::vector<Train> trains;
    uint64_t insts = 0;
    uint64_t terminating = 0;
};

Streams
capture(const isa::Program &prog, const sim::MachineConfig &cfg)
{
    Streams s;
    isa::RegFile regs;
    isa::MemoryImage mem;
    prog.loadData(mem);
    const uint64_t line_mask =
        ~(static_cast<uint64_t>(cfg.mem.lineBytes) - 1);
    uint64_t pc = prog.entry();
    uint64_t last_line = ~0ull;
    while (s.insts < cfg.maxInsts) {
        const isa::Inst &inst = prog.inst(pc);
        uint64_t line = (pc * isa::kInstBytes) & line_mask;
        if (line != last_line) {
            s.mem.push_back({pc * isa::kInstBytes, Streams::Fetch});
            last_line = line;
        }
        isa::StepResult res = isa::step(inst, pc, regs, mem);
        s.insts++;
        if (res.regWrite)
            s.trains.push_back({pc, res.value, false});
        if (res.isLoad) {
            s.mem.push_back({res.memAddr, Streams::Read});
            s.trains.push_back(
                {pc, res.memAddr - static_cast<uint64_t>(inst.imm), true});
        }
        if (res.isStore)
            s.mem.push_back({res.memAddr, Streams::Write});
        if (inst.isControl()) {
            s.control.push_back({pc, res.taken,
                                 inst.isTerminatingBranch(),
                                 inst.isCondBranch()});
            s.terminating += inst.isTerminatingBranch() ? 1 : 0;
            if (inst.isCondBranch())
                s.cond.push_back({pc, res.taken});
        }
        if (res.halted)
            break;
        pc = res.nextPc;
    }
    return s;
}

} // namespace

void
replayLayers(const std::vector<Cell> &cells,
             const std::vector<Reference> &refs, Spans *spans,
             RunRecord &rec)
{
    constexpr int kReps = 3;
    uint64_t isa_ns = 0, isa_insts = 0;
    uint64_t bp_ns = 0, bp_branches = 0, bp_misses = 0;
    uint64_t mem_ns = 0, mem_accesses = 0;
    uint64_t vp_ns = 0, vp_trains = 0;
    uint64_t path_ns = 0, path_updates = 0;
    uint64_t make_ns = 0;
    // How often each replayed operation occurs in the cells as the
    // core runs them: the weights of the residual estimate.
    uint64_t w_insts = 0, w_cond = 0, w_mem = 0, w_trains = 0,
             w_updates = 0;

    // One capture per distinct proxy program; cells share it.
    std::map<const isa::Program *, size_t> stream_of;
    std::vector<Streams> streams;
    std::vector<size_t> first_cell;
    for (size_t i = 0; i < cells.size(); i++) {
        const Cell &cell = cells[i];
        auto it = stream_of.find(cell.program);
        if (it == stream_of.end()) {
            SpanScope span(spans, "layers.capture", i);
            it = stream_of.emplace(cell.program, streams.size()).first;
            streams.push_back(capture(*cell.program, cell.config));
            first_cell.push_back(i);
        }
        const Streams &s = streams[it->second];
        w_insts += refs[i].result.stats.retiredInsts;
        w_cond += s.cond.size();
        w_mem += s.mem.size();
        w_updates += refs[i].result.stats.pathCacheUpdates;
        if (usesMicrothreads(cell.config.mode))
            w_trains += s.trains.size();
    }

    for (size_t p = 0; p < streams.size(); p++) {
        const Cell &cell = cells[first_cell[p]];
        const isa::Program &prog = *cell.program;
        const sim::MachineConfig &cfg = cell.config;
        const Streams &s = streams[p];

        {
            SpanScope span(spans, "layers.isa", p);
            isa_ns += medianNs(kReps, [&] {
                isa::RegFile regs;
                isa::MemoryImage mem;
                prog.loadData(mem);
                uint64_t t0 = nowNs();
                g_sink = isa::run(prog, regs, mem, cfg.maxInsts);
                return nowNs() - t0;
            });
            isa_insts += s.insts;
        }

        std::vector<bool> miss(s.cond.size());
        {
            SpanScope span(spans, "layers.bpred", p);
            bp_ns += medianNs(kReps, [&] {
                auto pred =
                    bpred::makeDirectionPredictor(cfg.directionConfig());
                uint64_t t0 = nowNs();
                for (size_t b = 0; b < s.cond.size(); b++)
                    miss[b] = pred->predictAndTrain(s.cond[b].pc,
                                                    s.cond[b].taken) !=
                              s.cond[b].taken;
                return nowNs() - t0;
            });
            bp_branches += s.cond.size();
            bp_misses += static_cast<uint64_t>(
                std::count(miss.begin(), miss.end(), true));
        }

        {
            SpanScope span(spans, "layers.memory", p);
            mem_ns += medianNs(kReps, [&] {
                memory::Hierarchy hier(cfg.mem);
                uint64_t t0 = nowNs();
                uint64_t lat = 0;
                for (const Streams::Access &a : s.mem) {
                    switch (a.kind) {
                      case Streams::Fetch: lat += hier.fetch(a.addr); break;
                      case Streams::Read: lat += hier.read(a.addr); break;
                      case Streams::Write: hier.write(a.addr); break;
                    }
                }
                g_sink = lat;
                return nowNs() - t0;
            });
            mem_accesses += s.mem.size();
        }

        {
            SpanScope span(spans, "layers.vpred", p);
            vp_ns += medianNs(kReps, [&] {
                vpred::ValuePredictor values(cfg.vpredEntries,
                                             cfg.vpredConfMax,
                                             cfg.vpredConfThresh);
                vpred::ValuePredictor addrs(cfg.vpredEntries,
                                            cfg.vpredConfMax,
                                            cfg.vpredConfThresh);
                uint64_t t0 = nowNs();
                for (const Streams::Train &t : s.trains)
                    (t.address ? addrs : values).train(t.pc, t.value);
                g_sink = values.trainings() + addrs.trainings();
                return nowNs() - t0;
            });
            vp_trains += s.trains.size();
        }

        {
            SpanScope span(spans, "layers.core", p);
            path_ns += medianNs(kReps, [&] {
                core::PathTracker tracker(16);
                core::PathCache cache(cfg.pathCacheEntries,
                                      cfg.pathCacheAssoc,
                                      cfg.trainingInterval,
                                      cfg.difficultyThreshold);
                uint64_t t0 = nowNs();
                size_t b = 0;
                for (const Streams::Control &c : s.control) {
                    bool mispredict = c.conditional && miss[b];
                    b += c.conditional ? 1 : 0;
                    if (c.terminating)
                        cache.update(tracker.pathId(cfg.pathN),
                                     mispredict);
                    if (c.taken)
                        tracker.push(c.pc * isa::kInstBytes);
                }
                g_sink = cache.updates();
                return nowNs() - t0;
            });
            path_updates += s.terminating;
        }

        {
            SpanScope span(spans, "layers.workloads", p);
            make_ns += medianNs(kReps, [&] {
                uint64_t t0 = nowNs();
                g_sink = workloads::makeWorkload(cell.proxy).size();
                return nowNs() - t0;
            });
        }
    }

    rec.value("isa.ns", isa_ns);
    rec.value("isa.insts", isa_insts);
    rec.value("bpred.ns", bp_ns);
    rec.value("bpred.branches", bp_branches);
    rec.value("bpred.misses", bp_misses);
    rec.value("memory.ns", mem_ns);
    rec.value("memory.accesses", mem_accesses);
    rec.value("vpred.ns", vp_ns);
    rec.value("vpred.trains", vp_trains);
    rec.value("core.ns", path_ns);
    rec.value("core.updates", path_updates);
    rec.value("workloads.make_ns", make_ns);
    rec.value("workloads.makes", streams.size());
    rec.value("weights.insts", w_insts);
    rec.value("weights.cond", w_cond);
    rec.value("weights.mem", w_mem);
    rec.value("weights.trains", w_trains);
    rec.value("weights.updates", w_updates);
}

} // namespace perfbench
