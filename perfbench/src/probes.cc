#include <algorithm>
#include <thread>

#include "cli_common.hh"
#include "layers.hh"
#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/job_codec.hh"
#include "sim/snapshot.hh"

namespace perfbench
{

using namespace ssmt;

namespace
{

/** The campaign spec whose cell grid is exactly @p cells (cells are
 *  proxy-major, then mode, as campaignCells enumerates them). */
sim::CampaignSpec
specFor(const std::vector<Cell> &cells, const std::string &name)
{
    sim::CampaignSpec spec;
    spec.name = name;
    for (const Cell &c : cells) {
        if (std::find(spec.workloads.begin(), spec.workloads.end(),
                      c.proxy) == spec.workloads.end())
            spec.workloads.push_back(c.proxy);
        if (std::find(spec.modes.begin(), spec.modes.end(),
                      c.config.mode) == spec.modes.end())
            spec.modes.push_back(c.config.mode);
    }
    return spec;
}

} // namespace

void
serviceLayers(const std::vector<Cell> &cells,
              const std::vector<Reference> &refs, const std::string &dir,
              Spans *spans, RunRecord &rec)
{
    constexpr int kCodecReps = 5;
    const size_t n = cells.size();
    sim::ensureDir(dir);

    // Codec: encode and decode of every cell's document.
    uint64_t enc_ns = 0, dec_ns = 0, doc_bytes = 0;
    std::vector<std::string> docs(n);
    {
        SpanScope span(spans, "sim.codec", 0);
        for (int r = 0; r < kCodecReps; r++) {
            for (size_t i = 0; i < n; i++) {
                uint64_t t0 = nowNs();
                docs[i] = sim::encodeJobResult(refs[i].result, "", true);
                uint64_t t1 = nowNs();
                sim::BatchResult back;
                std::string checkpoint;
                bool final_attempt = false;
                sim::decodeJobResult(docs[i], cells[i].config, &back,
                                     &checkpoint, &final_attempt);
                uint64_t t2 = nowNs();
                enc_ns += t1 - t0;
                dec_ns += t2 - t1;
                doc_bytes += docs[i].size();
                if (r == 0 && statsHash(back.stats) != refs[i].statsHash)
                    rec.fail(cells[i].label + ": codec round trip lost "
                                              "counters");
            }
        }
    }
    rec.value("codec.docs", n * kCodecReps);
    rec.value("codec.encode_ns", enc_ns);
    rec.value("codec.decode_ns", dec_ns);
    rec.value("codec.bytes", doc_bytes);

    // Store save/load, journal appends (fsync each) and the manifest,
    // on the spec whose cells these are.
    sim::CampaignSpec spec = specFor(cells, "probe");
    std::vector<sim::CampaignCell> grid = sim::campaignCells(spec);
    sim::ResultStore store(dir + "/store");
    sim::ensureDir(store.dir());
    uint64_t save_ns = 0, load_ns = 0, journal_ns = 0;
    sim::CampaignJournal journal(dir + "/journal.jsonl");
    if (!journal.open(true) || !journal.appendHeader(sim::specJson(spec)))
        rec.fail("probe journal could not be opened");
    std::vector<sim::BatchResult> loaded(n);
    {
        SpanScope span(spans, "sim.store", 0);
        for (size_t i = 0; i < n; i++) {
            const std::string key = sim::ResultStore::cellKey(
                sim::programHash(*cells[i].program), cells[i].config, 0);
            uint64_t t0 = nowNs();
            bool saved = store.save(key, refs[i].result);
            uint64_t t1 = nowNs();
            bool appended = journal.appendCell(
                {grid[i].name, key, refs[i].result.errorCode, false});
            uint64_t t2 = nowNs();
            bool found = store.load(key, cells[i].config, &loaded[i]);
            uint64_t t3 = nowNs();
            save_ns += t1 - t0;
            journal_ns += t2 - t1;
            load_ns += t3 - t2;
            if (!saved || !appended || !found)
                rec.fail(cells[i].label + ": store/journal probe failed");
        }
    }
    journal.close();
    uint64_t manifest_ns = 0;
    {
        SpanScope span(spans, "sim.manifest", 0);
        uint64_t t0 = nowNs();
        std::string manifest = sim::campaignManifest(spec, grid, loaded);
        bool written = sim::writeFileAtomic(dir + "/manifest.json", manifest);
        manifest_ns = nowNs() - t0;
        if (!written)
            rec.fail("probe manifest could not be written");
    }
    rec.value("store.cells", n);
    rec.value("store.save_ns", save_ns);
    rec.value("store.load_ns", load_ns);
    rec.value("journal.append_ns", journal_ns);
    rec.value("manifest.ns", manifest_ns);

    // Task runtime: per-task cost of dispatching no-op tasks.
    {
        SpanScope span(spans, "sim.taskrt", 0);
        constexpr size_t kTasks = 20000;
        sim::BatchRunner runner(2);
        std::vector<uint64_t> t;
        for (int r = 0; r < 5; r++) {
            uint64_t t0 = nowNs();
            runner.forEach(kTasks, [](size_t) {});
            t.push_back(nowNs() - t0);
        }
        std::sort(t.begin(), t.end());
        rec.value("taskrt.tasks", kTasks);
        rec.value("taskrt.ns", t[t.size() / 2]);
    }

    // proc_runner: the same short jobs isolated and in-process,
    // interleaved, median of each.
    {
        SpanScope span(spans, "sim.proc_runner", 0);
        std::vector<sim::BatchJob> jobs;
        for (size_t i = 0; i < n && jobs.size() < 4; i++) {
            sim::BatchJob job;
            job.name = cells[i].label;
            job.program = *cells[i].program;
            job.config = cells[i].config;
            job.config.maxInsts = 20000;
            jobs.push_back(std::move(job));
        }
        sim::BatchRunner runner(2);
        sim::BatchPolicy isolated;
        isolated.isolate = true;
        std::vector<uint64_t> in_t, iso_t;
        for (int r = 0; r < 5; r++) {
            uint64_t t0 = nowNs();
            auto a = runner.run(jobs, sim::BatchPolicy{});
            uint64_t t1 = nowNs();
            auto b = runner.run(jobs, isolated);
            uint64_t t2 = nowNs();
            in_t.push_back(t1 - t0);
            iso_t.push_back(t2 - t1);
            for (size_t j = 0; j < jobs.size(); j++) {
                if (!a[j].ok() || !b[j].ok() ||
                    sim::encodeJobResult(a[j], "", true) !=
                        sim::encodeJobResult(b[j], "", true))
                    rec.fail(jobs[j].name +
                             ": isolated result differs from in-process");
            }
        }
        std::sort(in_t.begin(), in_t.end());
        std::sort(iso_t.begin(), iso_t.end());
        rec.value("proc.cells", jobs.size());
        rec.value("proc.inprocess_ns", in_t[in_t.size() / 2]);
        rec.value("proc.isolated_ns", iso_t[iso_t.size() / 2]);
    }
}

void
toolsLayers(ServerProcess &server, const std::vector<Cell> &cells,
            bool have_client_spans, Spans *spans, RunRecord &rec)
{
    constexpr int kPings = 50;
    std::vector<uint64_t> connects, pings;
    for (int i = 0; i < kPings; i++) {
        uint64_t c = 0, p = 0;
        if (!ping(server.socket(), &c, &p)) {
            rec.fail("probe ping failed");
            continue;
        }
        connects.push_back(c);
        pings.push_back(p);
    }
    rec.samples("tools.ping_ns", pings);

    if (!have_client_spans) {
        // A two-cell batch of the workload's own cells, as a client
        // with no other traffic sees it.
        sim::SnapshotWriter w;
        w.beginObject();
        w.str("schema", "ssmt-server-v1");
        w.str("cmd", "batch");
        w.beginArray("cells");
        for (size_t i = 0; i < cells.size() && i < 2; i++) {
            w.beginObject();
            w.str("workload", cells[i].proxy);
            w.str("mode", sim::modeName(cells[i].config.mode));
            w.str("name", cells[i].label);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::vector<uint64_t> first, stream, bytes;
        for (int r = 0; r < 5; r++) {
            Reply reply = request(server.socket(), w.text(), spans,
                                  1000000 + r);
            if (!reply.ok) {
                rec.fail("probe batch request failed: " + reply.error);
                continue;
            }
            connects.push_back(reply.connectNs);
            first.push_back(reply.firstNs);
            stream.push_back(reply.streamNs);
            bytes.push_back(reply.bytes);
        }
        rec.samples("tools.first_event_ns", first);
        rec.samples("tools.stream_ns", stream);
        rec.samples("tools.reply_bytes", bytes);
        rec.samples("tools.connect_ns", connects);
    }

    rec.value("tools.server_hwm_kb", procStatusKb(server.pid(), "VmHWM"));

    // Each connection leaves its handler thread behind in the server
    // until exit; VmSize shows the growth.
    constexpr int kConnections = 100;
    uint64_t before = procStatusKb(server.pid(), "VmSize");
    for (int i = 0; i < kConnections; i++)
        if (!ping(server.socket(), nullptr, nullptr))
            rec.fail("probe connection failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    uint64_t after = procStatusKb(server.pid(), "VmSize");
    rec.value("tools.vm_kb_before", before);
    rec.value("tools.vm_kb_after", after);
    rec.value("tools.vm_connections", kConnections);
}

} // namespace perfbench
