/**
 * @file
 * ssmt_server: the simulation-as-a-service daemon.
 *
 * A long-running process that accepts concurrent campaign / batch
 * requests over a Unix-domain socket and multiplexes every cell onto
 * the process-wide sim::TaskRuntime pool — so N clients share one
 * set of workers instead of oversubscribing the host N times. The
 * wire protocol (ssmt-server-v1, DESIGN.md §9) is line-delimited
 * JSON: one request object per line in, a stream of event objects
 * per line out, built entirely on existing canonical codecs — cell
 * payloads are ssmt-job-result-v1 documents (with
 * their embedded ssmt-series-v1 metrics), campaign identities are
 * canonical CampaignSpec JSON, and the terminal campaign artifact is
 * the byte-exact ssmt-campaign-v1 manifest.
 *
 * Campaigns are durable server-side: each spec maps to a directory
 * under --root keyed by the hash of its canonical spec text, so a
 * repeated submission — same client retrying, or a second concurrent
 * client asking the same question — replays finished cells from the
 * content-addressed ResultStore as cache hits and produces a
 * manifest byte-identical to an in-process runCampaign of the same
 * spec. Same-spec submissions are serialized on a per-directory
 * lock; distinct specs run fully concurrently on the shared pool.
 *
 * Isolate-mode specs are refused: subprocess isolation forks, and
 * the daemon is inherently multithreaded (client threads); run those
 * through `ssmt_campaign run --isolate` locally instead.
 *
 * A client that disconnects mid-campaign does not abort it: the
 * campaign keeps running to durable completion (store + journal),
 * and the client can reconnect and resubmit to stream the rest as
 * cache hits.
 *
 * Each connection gets a handler thread; the accept loop joins
 * finished handlers as new connections arrive, so a long-lived
 * daemon holds threads only for live clients. A request line longer
 * than kMaxRequestBytes is answered with an error event naming the
 * limit, and that connection is closed.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "cli_common.hh"
#include "sim/campaign.hh"
#include "sim/fsio.hh"
#include "sim/golden.hh"
#include "sim/job_codec.hh"
#include "sim/jobs.hh"
#include "sim/json_text.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/snapshot.hh"
#include "sim/taskrt.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;

const char kServerSchema[] = "ssmt-server-v1";

/** Longest request line the server reads. The largest request an
 *  in-tree client sends, the 60-cell differential batch of
 *  `ssmt_verify_golden --server --differential` over all 20
 *  workloads, is 5529 bytes; 1 MiB leaves ~190x headroom. */
constexpr size_t kMaxRequestBytes = 1u << 20;

const char kUsage[] =
    "usage: ssmt_server --socket PATH [--root DIR] [--jobs N|auto]\n"
    "\n"
    "  --socket PATH   Unix-domain socket to listen on (created;\n"
    "                  a stale socket file is replaced)\n"
    "  --root DIR      campaign state root (default ssmt-server-root);\n"
    "                  each spec gets <root>/c-<spechash>/ with the\n"
    "                  usual journal/store/manifest layout\n"
    "  --jobs N|auto   worker-pool width (default: SSMT_JOBS, cores)\n"
    "\n"
    "Protocol: ssmt-server-v1 line-delimited JSON (DESIGN.md §9).\n"
    "SIGINT/SIGTERM stop accepting and exit once clients drain.\n";

std::atomic<bool> g_stop{false};
int g_listen_fd = -1;

void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    // Closing the listen fd unblocks accept() so the main loop can
    // exit; in-flight connections drain normally.
    if (g_listen_fd >= 0)
        ::close(g_listen_fd);
}

/** Server-wide shared state: config, counters, per-campaign-dir
 *  locks. */
struct ServerState
{
    std::string root;
    unsigned jobs = 0;

    std::atomic<uint64_t> campaignsTotal{0};
    std::atomic<uint64_t> campaignsActive{0};
    std::atomic<uint64_t> batchesTotal{0};
    std::atomic<uint64_t> cellsServed{0};
    std::atomic<uint64_t> cacheHits{0};

    /** Serializes same-spec submissions (one directory = one
     *  journal writer); distinct specs proceed concurrently. */
    std::mutex dirLocksMutex;
    std::map<std::string, std::unique_ptr<std::mutex>> dirLocks;

    std::mutex &lockFor(const std::string &dir)
    {
        std::lock_guard<std::mutex> l(dirLocksMutex);
        auto it = dirLocks.find(dir);
        if (it == dirLocks.end()) {
            it = dirLocks
                     .emplace(dir, std::make_unique<std::mutex>())
                     .first;
        }
        return *it->second;
    }
};

/** One event line: an open writer the handler fills, sent on
 *  finish(). Every event carries the schema tag. */
class EventLine
{
  public:
    explicit EventLine(const char *event)
    {
        w_.beginObject();
        w_.str("schema", kServerSchema);
        w_.str("event", event);
    }

    sim::SnapshotWriter &w() { return w_; }

    bool sendTo(cli::LineSocket &sock)
    {
        w_.endObject();
        return sock.sendLine(w_.text());
    }

  private:
    sim::SnapshotWriter w_;
};

bool
sendError(cli::LineSocket &sock, const std::string &message)
{
    EventLine e("error");
    e.w().str("message", message);
    return e.sendTo(sock);
}

// --------------------------------------------------------------------
// campaign
// --------------------------------------------------------------------

void
handleCampaign(ServerState &state, cli::LineSocket &sock,
               const sim::JsonValue &request)
{
    const sim::JsonValue *spec_text = request.find("spec");
    if (!spec_text ||
        spec_text->kind != sim::JsonValue::Kind::String) {
        sendError(sock, "campaign needs a 'spec' string (canonical "
                        "CampaignSpec JSON)");
        return;
    }
    sim::CampaignSpec spec;
    try {
        spec = sim::parseSpec(spec_text->text);
    } catch (const sim::SimError &err) {
        sendError(sock, std::string("spec unparsable: ") +
                            err.what());
        return;
    }
    if (spec.isolate) {
        sendError(sock,
                  "isolate specs are not served (fork from a "
                  "multithreaded daemon); use ssmt_campaign run "
                  "--isolate locally");
        return;
    }
    const sim::JsonValue *stream = request.find("stream");
    bool want_stream =
        !stream || stream->kind != sim::JsonValue::Kind::Bool ||
        stream->boolean;

    // The canonical spec text is the campaign identity: two
    // spellings of the same spec share one directory.
    const std::string dir = state.root + "/c-" + sim::specHash(spec);

    state.campaignsTotal.fetch_add(1, std::memory_order_relaxed);
    state.campaignsActive.fetch_add(1, std::memory_order_relaxed);
    // A vanished client must not abort the campaign: keep running to
    // durable completion, just stop streaming.
    std::atomic<bool> peer_alive{true};
    auto send = [&](EventLine &e) {
        if (peer_alive.load(std::memory_order_relaxed) &&
            !e.sendTo(sock))
            peer_alive.store(false, std::memory_order_relaxed);
    };

    sim::CampaignOptions copts;
    copts.jobs = state.jobs;
    if (want_stream) {
        copts.log = [&](const std::string &line) {
            EventLine e("progress");
            e.w().str("line", line);
            send(e);
        };
    }
    std::mutex cell_mutex;  // onCell fires from pool workers
    copts.onCell = [&](const sim::CampaignCell &cell,
                       const std::string &key,
                       const sim::BatchResult &result, bool cached) {
        state.cellsServed.fetch_add(1, std::memory_order_relaxed);
        if (cached)
            state.cacheHits.fetch_add(1, std::memory_order_relaxed);
        if (!want_stream)
            return;
        std::lock_guard<std::mutex> l(cell_mutex);
        EventLine e("cell");
        e.w().str("cell", cell.name);
        e.w().str("key", key);
        e.w().boolean("cached", cached);
        e.w().boolean("ok", result.ok());
        e.w().str("error", result.ok()
                               ? std::string()
                               : sim::errorCodeName(result.errorCode));
        // The full canonical cell document, series included — the
        // same ssmt-job-result-v1 bytes the store holds.
        e.w().str("doc", sim::encodeJobResult(result, "", true));
        send(e);
    };

    try {
        std::lock_guard<std::mutex> dir_lock(state.lockFor(dir));
        sim::CampaignOutcome outcome =
            sim::runCampaign(spec, dir, copts);

        if (outcome.completed) {
            EventLine e("manifest");
            e.w().str("path", outcome.manifestPath);
            e.w().str("text",
                      sim::readFileOrEmpty(outcome.manifestPath));
            send(e);
        }
        EventLine done("done");
        done.w().boolean("ok",
                         outcome.completed && outcome.failed == 0);
        done.w().u64("cells", outcome.cells.size());
        done.w().u64("cacheHits", outcome.cacheHits);
        done.w().u64("executed", outcome.executed);
        done.w().u64("failed", outcome.failed);
        done.w().str("dir", dir);
        send(done);
    } catch (const std::exception &err) {
        if (peer_alive.load(std::memory_order_relaxed))
            sendError(sock, err.what());
    }
    state.campaignsActive.fetch_sub(1, std::memory_order_relaxed);
}

// --------------------------------------------------------------------
// batch
// --------------------------------------------------------------------

/** A batch request cell: workload + mode under the golden or default
 *  config — the shapes ssmt_verify_golden and the benches need. */
bool
parseBatchCell(const sim::JsonValue &entry, sim::BatchJob *job,
               std::string *err)
{
    std::string workload = entry.str("workload");
    if (workload.empty()) {
        *err = "batch cell needs a 'workload'";
        return false;
    }
    bool known = false;
    for (const auto &info : workloads::allWorkloads())
        known = known || info.name == workload;
    if (!known) {
        *err = "unknown workload '" + workload + "'";
        return false;
    }
    sim::Mode mode;
    if (!sim::parseMode(entry.str("mode"), &mode)) {
        *err = "batch cell needs a valid 'mode'";
        return false;
    }
    std::string config_name = entry.str("config");
    if (config_name.empty())
        config_name = "golden";
    sim::MachineConfig config;
    if (config_name == "golden") {
        config = sim::goldenMachineConfig();
    } else if (config_name == "default") {
        config = sim::MachineConfig{};
    } else {
        *err = "unknown config '" + config_name +
               "' (accepted: golden, default)";
        return false;
    }
    config.mode = mode;
    if (const sim::JsonValue *max_insts = entry.find("maxInsts"))
        if (max_insts->isInteger && max_insts->integer > 0)
            config.maxInsts = max_insts->integer;
    if (const sim::JsonValue *sample = entry.find("sampleInterval"))
        if (sample->isInteger)
            config.sampleInterval = sample->integer;

    workloads::WorkloadParams params;
    if (const sim::JsonValue *scale = entry.find("scale"))
        if (scale->isInteger && scale->integer > 0)
            params.scale = scale->integer;

    job->name = entry.str("name");
    if (job->name.empty())
        job->name = workload + "/" + sim::modeName(mode);
    job->program = workloads::makeWorkload(workload, params);
    job->config = config;
    return true;
}

void
handleBatch(ServerState &state, cli::LineSocket &sock,
            const sim::JsonValue &request)
{
    const sim::JsonValue *cells = request.find("cells");
    if (!cells || cells->kind != sim::JsonValue::Kind::Array ||
        cells->items.empty()) {
        sendError(sock, "batch needs a non-empty 'cells' array");
        return;
    }
    std::vector<sim::BatchJob> batch(cells->items.size());
    for (size_t i = 0; i < cells->items.size(); i++) {
        std::string err;
        if (!parseBatchCell(cells->items[i], &batch[i], &err)) {
            sendError(sock, "cell " + std::to_string(i) + ": " + err);
            return;
        }
    }

    state.batchesTotal.fetch_add(1, std::memory_order_relaxed);
    std::atomic<bool> peer_alive{true};
    std::mutex send_mutex;  // the hook fires from pool workers
    sim::BatchRunner runner(state.jobs);
    std::vector<sim::BatchResult> results = runner.run(
        batch, sim::BatchPolicy{},
        [&](size_t i, const sim::BatchResult &result) {
            state.cellsServed.fetch_add(1,
                                        std::memory_order_relaxed);
            std::lock_guard<std::mutex> l(send_mutex);
            if (!peer_alive.load(std::memory_order_relaxed))
                return;
            // Streamed in completion order; 'index' keys the slot,
            // so the client reassembles deterministically.
            EventLine e("job");
            e.w().u64("index", i);
            e.w().str("name", batch[i].name);
            e.w().boolean("ok", result.ok());
            e.w().str("doc", sim::encodeJobResult(result, "", true));
            if (!e.sendTo(sock))
                peer_alive.store(false, std::memory_order_relaxed);
        });

    size_t failed = 0;
    for (const sim::BatchResult &result : results)
        failed += result.ok() ? 0 : 1;
    EventLine done("done");
    done.w().boolean("ok", failed == 0);
    done.w().u64("cells", results.size());
    done.w().u64("failed", failed);
    if (peer_alive.load(std::memory_order_relaxed))
        done.sendTo(sock);
}

// --------------------------------------------------------------------
// connection loop
// --------------------------------------------------------------------

void
handleStatus(ServerState &state, cli::LineSocket &sock)
{
    EventLine e("status");
    e.w().u64("workers", sim::TaskRuntime::shared().workers());
    e.w().u64("campaignsActive", state.campaignsActive.load());
    e.w().u64("campaignsTotal", state.campaignsTotal.load());
    e.w().u64("batchesTotal", state.batchesTotal.load());
    e.w().u64("cellsServed", state.cellsServed.load());
    e.w().u64("cacheHits", state.cacheHits.load());
    e.sendTo(sock);
}

void
serveConnection(ServerState &state, int fd)
{
    cli::LineSocket sock(fd);
    std::string line;
    while (sock.recvLine(&line, kMaxRequestBytes)) {
        if (line.empty())
            continue;
        sim::JsonValue request;
        std::string err;
        if (!sim::parseJson(line, request, &err)) {
            if (!sendError(sock, "request unparsable: " + err))
                break;
            continue;
        }
        if (request.str("schema") != kServerSchema) {
            if (!sendError(sock, std::string("expected schema ") +
                                     kServerSchema))
                break;
            continue;
        }
        std::string cmd = request.str("cmd");
        if (cmd == "ping") {
            EventLine e("pong");
            if (!e.sendTo(sock))
                break;
        } else if (cmd == "campaign") {
            handleCampaign(state, sock, request);
        } else if (cmd == "batch") {
            handleBatch(state, sock, request);
        } else if (cmd == "status") {
            handleStatus(state, sock);
        } else if (cmd == "shutdown") {
            EventLine e("done");
            e.w().boolean("ok", true);
            e.sendTo(sock);
            g_stop.store(true, std::memory_order_relaxed);
            if (g_listen_fd >= 0)
                ::shutdown(g_listen_fd, SHUT_RDWR);
            break;
        } else {
            if (!sendError(sock, "unknown cmd '" + cmd + "'"))
                break;
        }
    }
    if (sock.frameTooLong()) {
        sendError(sock, "request line exceeds " +
                            std::to_string(kMaxRequestBytes) +
                            " bytes; closing connection");
    }
}

/** One connection's handler thread. `finished` flips as the handler
 *  returns, so the accept loop can join it. */
struct Connection
{
    std::thread thread;
    std::atomic<bool> finished{false};
};

/** Join and drop every handler that has returned. */
void
reapFinished(std::list<Connection> &connections)
{
    for (auto it = connections.begin(); it != connections.end();) {
        if (it->finished.load(std::memory_order_acquire)) {
            it->thread.join();
            it = connections.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ssmt::detail::setFatalThrows(true);
    cli::ArgParser args(argc, argv, kUsage,
                        {{"--socket", nullptr, true},
                         {"--root", nullptr, true},
                         {"--jobs", nullptr, true}});
    std::string socket_path = args.str("--socket");
    if (socket_path.empty())
        args.fail("--socket PATH is required");

    ServerState state;
    state.root = args.str("--root", "ssmt-server-root");
    state.jobs = cli::jobsFlag(args, "--jobs");
    if (!sim::ensureDir(state.root)) {
        std::fprintf(stderr,
                     "ssmt_server: cannot create root '%s'\n",
                     state.root.c_str());
        return 1;
    }

    // Start the pool up-front at the requested width so status
    // reports it and the first request pays no ramp-up.
    sim::TaskRuntime::shared().ensureWorkers(
        sim::resolveJobs(state.jobs));

    struct sockaddr_un addr;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "ssmt_server: socket path too long\n");
        return 1;
    }
    // Replace a stale socket file (a previous daemon that died);
    // refuse anything that isn't a socket.
    struct stat st;
    if (::lstat(socket_path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            std::fprintf(stderr,
                         "ssmt_server: '%s' exists and is not a "
                         "socket\n",
                         socket_path.c_str());
            return 1;
        }
        ::unlink(socket_path.c_str());
    }

    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::perror("ssmt_server: socket");
        return 1;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    if (::bind(listen_fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 64) != 0) {
        std::perror("ssmt_server: bind/listen");
        ::close(listen_fd);
        return 1;
    }
    g_listen_fd = listen_fd;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::fprintf(stderr,
                 "[ssmt_server] listening on %s (root %s, %u "
                 "workers)\n",
                 socket_path.c_str(), state.root.c_str(),
                 sim::TaskRuntime::shared().workers());

    std::list<Connection> connections;
    while (!g_stop.load(std::memory_order_relaxed)) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR ||
                g_stop.load(std::memory_order_relaxed))
                break;
            continue;
        }
        reapFinished(connections);
        Connection &conn = connections.emplace_back();
        conn.thread = std::thread([&state, fd, &conn] {
            serveConnection(state, fd);
            conn.finished.store(true, std::memory_order_release);
        });
    }

    // Live connections drain before exit.
    for (Connection &conn : connections)
        conn.thread.join();
    ::unlink(socket_path.c_str());
    std::fprintf(stderr, "[ssmt_server] stopped (%llu campaigns, "
                         "%llu cells served, %llu cache hits)\n",
                 static_cast<unsigned long long>(
                     state.campaignsTotal.load()),
                 static_cast<unsigned long long>(
                     state.cellsServed.load()),
                 static_cast<unsigned long long>(
                     state.cacheHits.load()));
    return 0;
}
