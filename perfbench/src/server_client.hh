/**
 * @file
 * The benchmark's side of ssmt_server: a private daemon process that
 * is always torn down, and a one-connection-per-request client that
 * times each phase of a request.
 */

#ifndef PERFBENCH_SERVER_CLIENT_HH
#define PERFBENCH_SERVER_CLIENT_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/**
 * An ssmt_server child on a private socket and root. The destructor
 * stops it (SIGTERM, then SIGKILL after a grace period) and reaps it;
 * the child also dies with the driver (PR_SET_PDEATHSIG), and
 * killAllServers() stops every live one from a signal handler.
 */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ~ServerProcess() { stop(); }
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Spawn the daemon and wait until it answers a ping.
     *  @return false (with @p err set) on failure. */
    bool start(const std::string &bin, const std::string &socket,
               const std::string &root, unsigned jobs,
               const std::string &log, std::string *err);
    void stop();

    pid_t pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** Async-signal-safe: SIGKILL every running ServerProcess child. */
void killAllServers();

/** Connect to @p socket, ping once and close; the two phases' times
 *  go to the optional out-params. @return false on any failure. */
bool ping(const std::string &socket, uint64_t *connect_ns,
          uint64_t *ping_ns);

/** One streamed event line a request produced. */
struct Event
{
    std::string event;      ///< "cell", "job", "manifest", "done", ...
    std::string name;       ///< cell name (cell/job events)
    bool cached = false;
    bool ok = false;
    std::string doc;        ///< ssmt-job-result-v1 (cell/job events)
};

/** A request's outcome with the client-side timings of each phase. */
struct Reply
{
    bool ok = false;        ///< reached `done` with "ok": true
    std::string error;
    uint64_t connectNs = 0; ///< socket connect
    uint64_t firstNs = 0;   ///< send until the first event line
    uint64_t streamNs = 0;  ///< first event until `done`
    uint64_t totalNs = 0;   ///< send until `done`
    uint64_t bytes = 0;     ///< event bytes received
    std::vector<Event> events;
};

/**
 * Send @p line on a fresh connection to @p socket and read events
 * until `done` or `error`. Spans (when @p spans is non-null) are
 * recorded under request id @p request. A receive stalled for
 * @p timeout_s seconds fails the request.
 */
Reply request(const std::string &socket, const std::string &line,
              Spans *spans, uint64_t request, double timeout_s = 60.0);

} // namespace perfbench

#endif // PERFBENCH_SERVER_CLIENT_HH
