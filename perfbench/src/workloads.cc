#include "workloads.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <initializer_list>
#include <thread>

#include "layers.hh"
#include "server_client.hh"
#include "sim/campaign.hh"
#include "sim/golden.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace ssmt;

namespace
{

/** A p90 needs at least ten samples beyond it. */
constexpr size_t kMinOps = 100;
/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetups = 41;
/** Pause between two server starts. A start takes a few ms, and on a
 *  shared host their times move together in bursts of tens of ms, so
 *  back-to-back starts would all land in one burst; spread over two
 *  seconds, their median is that of the host's usual state. */
constexpr auto kSetupGap = std::chrono::milliseconds(50);

/** Seeded permutation of [0, n). */
std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; i++)
        p[i] = i;
    uint64_t state = mix64(seed ^ 0x7065726d);
    for (size_t i = n; i > 1; i--) {
        state = mix64(state);
        std::swap(p[i - 1], p[state % i]);
    }
    return p;
}

size_t
proxyIndex(const std::string &name)
{
    const std::vector<std::string> names = workloads::workloadNames();
    auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? names.size()
                             : static_cast<size_t>(it - names.begin());
}

/** Fail every op whose outputs do not match @p expected. */
void
markOutputs(LoopRecord &loop, const std::vector<uint64_t> &expected,
            RunRecord &rec)
{
    for (Op &op : loop.ops) {
        for (const Output &out : op.outputs) {
            rec.checks++;
            if (out.index >= expected.size() ||
                out.hash != expected[out.index]) {
                op.ok = false;
                op.error += "output " + std::to_string(out.index) +
                            " differs from the in-process reference; ";
            }
        }
        if (!op.ok)
            rec.fail("operation failed: " + op.error);
    }
}

/** The tools-layer probe for workloads that run no server of their
 *  own: a private one, probed with the workload's cells. */
void
probeToolsWithOwnServer(const Options &opts, const std::vector<Cell> &cells,
                        Spans &spans, RunRecord &rec)
{
    ServerProcess server;
    std::string err;
    if (!server.start(opts.serverBin, "probe.sock", "probe-root", 2,
                      "probe-server.log", &err)) {
        rec.fail("probe server: " + err);
        return;
    }
    toolsLayers(server, cells, false, &spans, rec);
}

// --------------------------------------------------------------------
// The 20 proxies x both modes under the default machine: the cells
// every served request is drawn from.
// --------------------------------------------------------------------

class ProxyGrid
{
  public:
    static constexpr sim::Mode kModes[2] = {sim::Mode::Baseline,
                                            sim::Mode::Microthread};

    void build()
    {
        names_ = workloads::workloadNames();
        for (const std::string &name : names_)
            programs_.push_back(workloads::makeWorkload(name));
        for (size_t p = 0; p < names_.size(); p++) {
            for (sim::Mode mode : kModes) {
                Cell cell;
                cell.proxy = names_[p];
                cell.label = names_[p] + "/" + sim::modeName(mode);
                cell.program = &programs_[p];
                cell.config = sim::MachineConfig{};
                cell.config.mode = mode;
                cells_.push_back(cell);
            }
        }
    }

    const std::vector<Cell> &cells() const { return cells_; }
    const std::string &name(size_t p) const { return names_[p]; }

    /** Grid index of a cell named "<proxy>/<mode>[/...]", or of a
     *  golden-config cell named "<proxy>" (microthread mode). */
    size_t indexOf(const std::string &cell_name) const
    {
        size_t slash = cell_name.find('/');
        size_t p = proxyIndex(cell_name.substr(0, slash));
        if (slash == std::string::npos)
            return p * 2 + 1;
        std::string rest = cell_name.substr(slash + 1);
        std::string mode = rest.substr(0, rest.find('/'));
        size_t m = mode == sim::modeName(kModes[1]) ? 1 : 0;
        return p * 2 + m;
    }

    /** Run the grid's reference pass, then check every output of
     *  @p loops against it and fill in the ops' fresh instructions.
     *  The microthread cells run goldenMachineConfig(), so they are
     *  also checked against golden/. */
    void check(RunRecord &rec, Spans *spans, const std::string &golden_dir,
               std::initializer_list<LoopRecord *> loops)
    {
        refs_ = referencePass(cells_, true, spans != nullptr, 2, spans,
                              rec);
        checkGolden(cells_, refs_, golden_dir, rec);
        for (size_t p = 0; p < names_.size(); p++) {
            rec.checks++;
            if (refs_[2 * p].result.stats.retiredInsts !=
                refs_[2 * p + 1].result.stats.retiredInsts) {
                rec.fail(names_[p] + ": baseline and microthread retire "
                                     "different instruction counts");
                refs_[2 * p].docHash = refs_[2 * p + 1].docHash = 0;
            }
        }
        std::vector<uint64_t> expected;
        for (const Reference &r : refs_)
            expected.push_back(r.docHash);
        for (LoopRecord *loop : loops) {
            for (Op &op : loop->ops) {
                op.insts = 0;
                for (const Output &out : op.outputs)
                    if (out.fresh && out.index < refs_.size())
                        op.insts += refs_[out.index].result.stats.retiredInsts;
            }
            markOutputs(*loop, expected, rec);
        }
    }

    /** The replay and service layer probes over the grid. */
    void probeLayers(RunRecord &rec, Spans &spans) const
    {
        replayLayers(cells_, refs_, &spans, rec);
        serviceLayers(cells_, refs_, "probe-service", &spans, rec);
    }

  private:
    std::vector<std::string> names_;
    std::vector<isa::Program> programs_;
    std::vector<Cell> cells_;
    std::vector<Reference> refs_;
};

// --------------------------------------------------------------------
// sim-baseline / sim-microthread
// --------------------------------------------------------------------

/**
 * All 20 proxies in one mode under goldenMachineConfig(), one cell at
 * a time on this thread, through sim::runProgramChecked. The proxies
 * are always built from the generators' default data (the data
 * golden/ was captured with), so every seed runs the same cells; the
 * seed only sets the order of the cells in each pass.
 */
class SimSuite : public BenchWorkload
{
  public:
    SimSuite(const Options &opts, sim::Mode mode)
        : opts_(opts), mode_(mode)
    {
    }

    void setup(RunRecord &rec) override
    {
        for (int s = 0; s < kSetups; s++) {
            // Only one set of programs is ever alive, so the peak RSS
            // does not depend on how the allocator recycles the last.
            programs_.clear();
            uint64_t t0 = nowNs();
            for (const std::string &name : workloads::workloadNames())
                programs_.push_back(workloads::makeWorkload(name));
            rec.setupNs.push_back(nowNs() - t0);
        }
        const std::vector<std::string> names = workloads::workloadNames();
        for (size_t p = 0; p < names.size(); p++) {
            Cell cell;
            cell.proxy = names[p];
            cell.label = names[p] + "/" + sim::modeName(mode_);
            cell.program = &programs_[p];
            cell.config = sim::goldenMachineConfig();
            cell.config.mode = mode_;
            cells_.push_back(cell);
        }
    }

    void loop(double seconds, Spans *spans, LoopRecord &out) override
    {
        // One untimed pass first, so the timed ones start on warm host
        // caches and allocator pools; its errors show in the timed
        // passes, which run the same cells.
        for (const Cell &cell : cells_) {
            try {
                sim::runProgramChecked(*cell.program, cell.config,
                                       cell.label);
            } catch (const std::exception &) {
            }
        }
        const uint64_t start = nowNs();
        const uint64_t deadline =
            start + static_cast<uint64_t>(seconds * 1e9);
        for (uint64_t pass = 0;
             pass == 0 || nowNs() < deadline || out.ops.size() < kMinOps;
             pass++) {
            SpanScope pass_span(spans, "sim.pass", pass);
            const uint64_t p0 = nowNs();
            for (size_t i : permutation(cells_.size(),
                                        mix64(opts_.seed) + pass)) {
                const Cell &cell = cells_[i];
                Op op;
                op.kind = OpKind::Cell;
                op.key = i;
                op.freshCells = 1;
                SpanScope span(spans, "sim.runProgramChecked", pass,
                               pass_span.id());
                const uint64_t t0 = nowNs();
                try {
                    sim::Stats stats = sim::runProgramChecked(
                        *cell.program, cell.config, cell.label);
                    op.ns = nowNs() - t0;
                    op.insts = stats.retiredInsts;
                    op.outputs.push_back(
                        {static_cast<uint32_t>(i), statsHash(stats), true});
                } catch (const std::exception &e) {
                    op.ns = nowNs() - t0;
                    op.ok = false;
                    op.error = cell.label + ": " + e.what();
                }
                out.ops.push_back(std::move(op));
            }
            out.passNs.push_back(nowNs() - p0);
        }
        out.loopNs = nowNs() - start;
    }

    void check(RunRecord &rec, Spans *spans) override
    {
        refs_ = referencePass(cells_, false, spans != nullptr, 1, spans,
                              rec);
        checkGolden(cells_, refs_, opts_.repoRoot + "/golden", rec);
        std::vector<uint64_t> expected;
        for (const Reference &r : refs_)
            expected.push_back(r.statsHash);
        markOutputs(rec.loop, expected, rec);
        markOutputs(rec.tracedLoop, expected, rec);
    }

    void probes(RunRecord &rec, Spans &spans) override
    {
        replayLayers(cells_, refs_, &spans, rec);
        serviceLayers(cells_, refs_, "probe-service", &spans, rec);
        probeToolsWithOwnServer(opts_, cells_, spans, rec);
    }

    uint64_t memoryPeakKb() const override { return peakRssKb(); }

  private:
    Options opts_;
    sim::Mode mode_;
    std::vector<isa::Program> programs_;
    std::vector<Cell> cells_;
    std::vector<Reference> refs_;
};

// --------------------------------------------------------------------
// serve-mixed
// --------------------------------------------------------------------

std::string
campaignLine(const sim::CampaignSpec &spec)
{
    sim::SnapshotWriter w;
    w.beginObject();
    w.str("schema", "ssmt-server-v1");
    w.str("cmd", "campaign");
    w.str("spec", sim::specJson(spec));
    w.endObject();
    return w.text();
}

/** A golden-config batch of @p proxies, shaped as
 *  ssmt_verify_golden --server sends it. */
std::string
goldenBatchLine(const std::vector<std::string> &proxies)
{
    sim::SnapshotWriter w;
    w.beginObject();
    w.str("schema", "ssmt-server-v1");
    w.str("cmd", "batch");
    w.beginArray("cells");
    for (const std::string &proxy : proxies) {
        w.beginObject();
        w.str("workload", proxy);
        w.str("mode", sim::modeName(sim::goldenMachineConfig().mode));
        w.str("config", "golden");
        w.str("name", proxy);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.text();
}

/** Turn a reply into an op: every cell document becomes an output to
 *  check, and the request kind's promise is verified (a fresh
 *  campaign simulates every cell, a repeat serves every cell from the
 *  store). */
Op
opFromReply(OpKind kind, size_t expect_cells, const Reply &reply,
            const ProxyGrid &grid)
{
    Op op;
    op.kind = kind;
    op.ns = reply.totalNs;
    op.bytes = reply.bytes;
    op.ok = reply.ok && reply.error.empty();
    op.error = reply.error;
    for (const Event &e : reply.events) {
        if (e.event != "cell" && e.event != "job")
            continue;
        bool fresh = e.event == "job" || !e.cached;
        (fresh ? op.freshCells : op.cachedCells)++;
        if (!e.ok) {
            op.ok = false;
            op.error += e.name + " failed; ";
        }
        op.outputs.push_back({static_cast<uint32_t>(grid.indexOf(e.name)),
                              fnv1a(e.doc), fresh});
    }
    if (op.freshCells + op.cachedCells != expect_cells) {
        op.ok = false;
        op.error += "expected " + std::to_string(expect_cells) +
                    " cells; ";
    }
    if ((kind == OpKind::Hit && op.freshCells != 0) ||
        (kind == OpKind::Fresh && op.cachedCells != 0)) {
        op.ok = false;
        op.error += "cache use does not match the request kind; ";
    }
    return op;
}

/**
 * ssmt_server --jobs 2 driven by a closed loop of two clients, a
 * fresh connection per request, no think time. The request shapes are
 * those of the repository's documented clients (EXPERIMENTS.md,
 * "Campaign daemon"), scaled down so a run holds at least kMinOps
 * requests:
 *  - a golden-config `batch` as ssmt_verify_golden --server sends it,
 *    of two proxies instead of the whole suite;
 *  - a fresh `campaign` of the ssmt_campaign run --server recipe's
 *    shape (both modes, fault seeds 0,1,2) with one proxy instead of
 *    three and a new name every time;
 *  - a repeat of the recipe's own 18-cell spec (comp, go, mcf_2k),
 *    completed once before timing, so every cell is a store hit.
 * Each client sends one of each per pass, in a seeded order: a 1:1:1
 * mix that no measured traffic backs.
 */
class ServeMixed : public BenchWorkload
{
  public:
    explicit ServeMixed(const Options &opts)
        : opts_(opts), perm_(permutation(20, opts.seed))
    {
    }

    void setup(RunRecord &rec) override
    {
        for (int s = 0; s < kSetups; s++) {
            server_ = std::make_unique<ServerProcess>();
            const std::string tag = std::to_string(s);
            std::string err;
            uint64_t t0 = nowNs();
            if (!server_->start(opts_.serverBin, "s" + tag + ".sock",
                                "root" + tag, 2, "server.log", &err))
                throw std::runtime_error(err);
            rec.setupNs.push_back(nowNs() - t0);
            if (s + 1 < kSetups) {
                server_->stop();
                std::this_thread::sleep_for(kSetupGap);
            }
        }
        grid_.build();

        hitSpec_.name = "repeat-s" + std::to_string(opts_.seed);
        hitSpec_.workloads = {"comp", "go", "mcf_2k"};
        hitSpec_.modes = {sim::Mode::Baseline, sim::Mode::Microthread};
        hitSpec_.seeds = kFaultSeeds;
        Reply reply = request(server_->socket(), campaignLine(hitSpec_),
                              nullptr, 0);
        warm_.ops.push_back(
            opFromReply(OpKind::Fresh, kHitCells, reply, grid_));
    }

    void loop(double seconds, Spans *spans, LoopRecord &out) override
    {
        const uint64_t start = nowNs();
        const uint64_t deadline =
            start + static_cast<uint64_t>(seconds * 1e9);
        const uint64_t generation = generation_++;
        std::atomic<size_t> total{0};
        LoopRecord per_client[2];
        std::exception_ptr failed[2];
        auto client = [&](size_t c) {
            try {
                runClient(c, deadline, generation, spans, total,
                          per_client[c]);
            } catch (...) {
                failed[c] = std::current_exception();
            }
        };
        std::thread other(client, 1);
        client(0);
        other.join();
        for (const std::exception_ptr &e : failed)
            if (e)
                std::rethrow_exception(e);
        out.loopNs = nowNs() - start;
        for (LoopRecord &r : per_client) {
            for (Op &op : r.ops)
                out.ops.push_back(std::move(op));
            out.passNs.insert(out.passNs.end(), r.passNs.begin(),
                              r.passNs.end());
        }
    }

    void check(RunRecord &rec, Spans *spans) override
    {
        grid_.check(rec, spans, opts_.repoRoot + "/golden",
                    {&warm_, &rec.loop, &rec.tracedLoop});
    }

    void probes(RunRecord &rec, Spans &spans) override
    {
        grid_.probeLayers(rec, spans);
        rec.samples("tools.connect_ns", spans.durations("tools.connect"));
        rec.samples("tools.first_event_ns",
                    spans.durations("tools.first_event"));
        rec.samples("tools.stream_ns", spans.durations("tools.stream"));
        std::vector<uint64_t> bytes;
        for (const Op &op : rec.tracedLoop.ops)
            bytes.push_back(op.bytes);
        rec.samples("tools.reply_bytes", bytes);
        toolsLayers(*server_, grid_.cells(), true, &spans, rec);
    }

    uint64_t memoryPeakKb() const override
    {
        return peakRssKb() + procStatusKb(server_->pid(), "VmHWM");
    }

  private:
    /** Fault seeds of the documented campaign recipe. */
    static inline const std::vector<uint64_t> kFaultSeeds = {0, 1, 2};
    static constexpr size_t kFreshCells = 2 * 3;
    static constexpr size_t kHitCells = 3 * 2 * 3;

    /** Client @p c's closed loop: whole rotations of 20 passes until
     *  the deadline and until both clients together have sent kMinOps
     *  requests, so every run sends each request equally often. */
    void runClient(size_t c, uint64_t deadline, uint64_t generation,
                   Spans *spans, std::atomic<size_t> &total,
                   LoopRecord &mine)
    {
        for (uint64_t k = 0; k % 20 != 0 || k == 0 || nowNs() < deadline ||
                             total.load() < kMinOps;
             k++) {
            std::array<OpKind, 3> order = {OpKind::Batch, OpKind::Fresh,
                                           OpKind::Hit};
            uint64_t state = mix64(opts_.seed ^ (c << 40) ^ k);
            for (size_t i = order.size(); i > 1; i--) {
                state = mix64(state);
                std::swap(order[i - 1], order[state % i]);
            }
            const uint64_t p0 = nowNs();
            for (size_t j = 0; j < order.size(); j++) {
                const uint64_t req =
                    (generation << 56) | (c << 48) | (k * 3 + j);
                mine.ops.push_back(
                    send(order[j], c, k, generation, req, spans));
                total++;
            }
            mine.passNs.push_back(nowNs() - p0);
        }
    }

    /**
     * Pass k of client c works on proxy i = perm[(k + 10c) mod 20]:
     * a golden batch of proxies i and i + 10, a fresh campaign of
     * proxy i + 5, and the repeat. Every 20 passes each client has
     * sent each request once, whatever the seed; the seed sets the
     * order.
     */
    Op send(OpKind kind, size_t c, uint64_t k, uint64_t generation,
            uint64_t req, Spans *spans)
    {
        const size_t i = perm_[(k + 10 * c) % 20];
        if (kind == OpKind::Batch) {
            Reply reply = request(
                server_->socket(),
                goldenBatchLine({grid_.name(i), grid_.name((i + 10) % 20)}),
                spans, req);
            return opFromReply(kind, 2, reply, grid_);
        }
        if (kind == OpKind::Fresh) {
            sim::CampaignSpec spec;
            spec.name = "fresh-s" + std::to_string(opts_.seed) + "-g" +
                        std::to_string(generation) + "-c" +
                        std::to_string(c) + "-k" + std::to_string(k);
            spec.workloads = {grid_.name((i + 5) % 20)};
            spec.modes = {sim::Mode::Baseline, sim::Mode::Microthread};
            spec.seeds = kFaultSeeds;
            Reply reply =
                request(server_->socket(), campaignLine(spec), spans, req);
            return opFromReply(kind, kFreshCells, reply, grid_);
        }
        Reply reply =
            request(server_->socket(), campaignLine(hitSpec_), spans, req);
        return opFromReply(kind, kHitCells, reply, grid_);
    }

    Options opts_;
    std::vector<size_t> perm_;
    ProxyGrid grid_;
    std::unique_ptr<ServerProcess> server_;
    sim::CampaignSpec hitSpec_;
    LoopRecord warm_;
    uint64_t generation_ = 0;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const Options &opts, std::string *err)
{
    if (opts.workload == "sim-baseline")
        return std::make_unique<SimSuite>(opts, sim::Mode::Baseline);
    if (opts.workload == "sim-microthread")
        return std::make_unique<SimSuite>(opts, sim::Mode::Microthread);
    if (opts.workload == "serve-mixed")
        return std::make_unique<ServeMixed>(opts);
    *err = "unknown workload '" + opts.workload +
           "' (sim-baseline, sim-microthread, serve-mixed)";
    return nullptr;
}

} // namespace perfbench
