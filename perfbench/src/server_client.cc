#include "server_client.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "cli_common.hh"
#include "common.hh"
#include "sim/json_text.hh"

namespace perfbench
{

namespace
{

// Live daemon pids, readable from a signal handler.
constexpr int kMaxServers = 8;
std::atomic<pid_t> g_servers[kMaxServers];

void
track(pid_t pid, bool add)
{
    for (auto &slot : g_servers) {
        pid_t expect = add ? 0 : pid;
        if (slot.compare_exchange_strong(expect, add ? pid : 0))
            return;
    }
}

const char kPing[] = R"({"schema":"ssmt-server-v1","cmd":"ping"})";

bool
reaped(pid_t pid)
{
    int status = 0;
    pid_t got = ::waitpid(pid, &status, WNOHANG);
    return got == pid || (got < 0 && errno == ECHILD);
}

} // namespace

void
killAllServers()
{
    for (auto &slot : g_servers) {
        pid_t pid = slot.load();
        if (pid > 0)
            ::kill(pid, SIGKILL);
    }
}

bool
ServerProcess::start(const std::string &bin, const std::string &socket,
                     const std::string &root, unsigned jobs,
                     const std::string &log, std::string *err)
{
    stop();
    socket_ = socket;
    const std::string jobs_text = std::to_string(jobs);
    std::vector<const char *> argv = {
        bin.c_str(), "--socket", socket.c_str(), "--root",
        root.c_str(), "--jobs", jobs_text.c_str(), nullptr};
    const pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        // Only async-signal-safe calls until exec: the driver may
        // have threads running.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        ::execv(bin.c_str(), const_cast<char *const *>(argv.data()));
        ::_exit(127);
    }
    pid_ = pid;
    track(pid, true);

    // Ready means a ping on the socket is answered.
    const uint64_t deadline = nowNs() + 20'000'000'000ull;
    while (nowNs() < deadline) {
        if (reaped(pid_)) {
            track(pid_, false);
            pid_ = -1;
            *err = "ssmt_server exited during start (see " + log + ")";
            return false;
        }
        if (ping(socket, nullptr, nullptr))
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    *err = "ssmt_server did not answer a ping within 20 s";
    stop();
    return false;
}

void
ServerProcess::stop()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    const uint64_t deadline = nowNs() + 10'000'000'000ull;
    bool gone = false;
    while (!(gone = reaped(pid_)) && nowNs() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!gone) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }
    track(pid_, false);
    pid_ = -1;
}

bool
ping(const std::string &socket, uint64_t *connect_ns, uint64_t *ping_ns)
{
    ssmt::cli::LineSocket sock;
    uint64_t t0 = nowNs();
    if (!sock.connectTo(socket))
        return false;
    uint64_t t1 = nowNs();
    std::string line;
    bool ok = sock.sendLine(kPing) && sock.recvLine(&line) &&
              line.find("\"pong\"") != std::string::npos;
    uint64_t t2 = nowNs();
    if (connect_ns)
        *connect_ns = t1 - t0;
    if (ping_ns)
        *ping_ns = t2 - t1;
    return ok;
}

Reply
request(const std::string &socket, const std::string &line,
        Spans *spans, uint64_t request_id, double timeout_s)
{
    Reply reply;
    SpanScope whole(spans, "tools.request", request_id);
    ssmt::cli::LineSocket sock;
    {
        SpanScope connect(spans, "tools.connect", request_id, whole.id());
        uint64_t t0 = nowNs();
        bool connected = sock.connectTo(socket);
        reply.connectNs = nowNs() - t0;
        if (!connected) {
            reply.error = std::string("connect: ") + std::strerror(errno);
            return reply;
        }
    }
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = 0;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    const uint64_t sent = nowNs();
    uint32_t phase = spans ? spans->begin("tools.first_event", request_id,
                                          whole.id())
                           : Spans::kNone;
    if (!sock.sendLine(line)) {
        if (spans)
            spans->end(phase);
        reply.error = "send failed";
        return reply;
    }
    uint64_t first = 0;
    std::string text;
    bool done = false;
    while (!done && sock.recvLine(&text)) {
        if (first == 0) {
            first = nowNs();
            if (spans) {
                spans->end(phase);
                phase = spans->begin("tools.stream", request_id,
                                     whole.id());
            }
        }
        reply.bytes += text.size() + 1;
        ssmt::sim::JsonValue event;
        std::string err;
        if (!ssmt::sim::parseJson(text, event, &err)) {
            reply.error = "unparsable event: " + err;
            break;
        }
        Event e;
        e.event = event.str("event");
        if (e.event == "error") {
            reply.error = "server error: " + event.str("message");
            break;
        }
        if (const ssmt::sim::JsonValue *ok = event.find("ok"))
            e.ok = ok->boolean;
        if (e.event == "cell" || e.event == "job") {
            e.name = event.str(e.event == "cell" ? "cell" : "name");
            if (const ssmt::sim::JsonValue *c = event.find("cached"))
                e.cached = c->boolean;
            e.doc = event.str("doc");
        } else if (e.event == "done") {
            reply.ok = e.ok;
            done = true;
        }
        reply.events.push_back(std::move(e));
    }
    const uint64_t end = nowNs();
    if (spans)
        spans->end(phase);
    if (!done && reply.error.empty())
        reply.error = "connection closed before 'done'";
    reply.totalNs = end - sent;
    reply.firstNs = first ? first - sent : reply.totalNs;
    reply.streamNs = first ? end - first : 0;
    return reply;
}

} // namespace perfbench
