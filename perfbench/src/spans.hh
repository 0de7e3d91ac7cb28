/**
 * @file
 * In-memory span recorder for traced runs: each span has a name, a
 * start and an end, the span that caused it, and the id of the
 * request it belongs to. Spans are recorded around the benchmark's
 * own calls into each layer and written out once, when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class Spans
{
  public:
    static constexpr uint32_t kNone = ~0u;

    /** Open a span; @return its id (kNone when recording is off). */
    uint32_t begin(const char *name, uint64_t request,
                   uint32_t parent = kNone);
    void end(uint32_t id);

    /** Durations in ns of every closed span named @p name. */
    std::vector<uint64_t> durations(const std::string &name) const;

    /** Write every span as a JSON array. @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        uint64_t request;
        uint32_t parent;
        uint64_t startNs;
        uint64_t endNs;
    };
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Scoped span; a null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(Spans *spans, const char *name, uint64_t request,
              uint32_t parent = Spans::kNone)
        : spans_(spans),
          id_(spans ? spans->begin(name, request, parent) : Spans::kNone)
    {
    }
    ~SpanScope()
    {
        if (spans_)
            spans_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t id() const { return id_; }

  private:
    Spans *spans_;
    uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
