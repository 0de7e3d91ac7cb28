#include "spans.hh"

#include "common.hh"
#include "sim/fsio.hh"
#include "sim/snapshot.hh"

namespace perfbench
{

uint32_t
Spans::begin(const char *name, uint64_t request, uint32_t parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, request, parent, nowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
}

void
Spans::end(uint32_t id)
{
    uint64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < spans_.size())
        spans_[id].endNs = t;
}

std::vector<uint64_t>
Spans::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> out;
    for (const Span &s : spans_)
        if (s.endNs != 0 && name == s.name)
            out.push_back(s.endNs - s.startNs);
    return out;
}

bool
Spans::write(const std::string &path) const
{
    ssmt::sim::SnapshotWriter w;
    w.beginObject();
    w.str("schema", "perfbench-spans-v1");
    w.beginArray("spans");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < spans_.size(); i++) {
            const Span &s = spans_[i];
            w.beginObject();
            w.u64("id", i);
            w.str("name", s.name);
            w.u64("request", s.request);
            if (s.parent != kNone)
                w.u64("parent", s.parent);
            w.u64("start_ns", s.startNs);
            w.u64("end_ns", s.endNs);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    return ssmt::sim::writeFileAtomic(path, w.text());
}

} // namespace perfbench
