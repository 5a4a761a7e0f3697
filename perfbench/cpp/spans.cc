#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <utility>

namespace perfbench
{

std::uint32_t
SpanBuffer::reserveId()
{
    return tracer_.nextId();
}

void
SpanBuffer::addWithId(std::uint32_t id, const char* name,
                      std::uint64_t request, std::uint32_t parent,
                      std::uint64_t start_ns, std::uint64_t end_ns)
{
    spans_.push_back({name, request, id, parent, start_ns, end_ns});
}

std::uint32_t
SpanBuffer::add(const char* name, std::uint64_t request,
                std::uint32_t parent, std::uint64_t start_ns,
                std::uint64_t end_ns)
{
    const std::uint32_t id = reserveId();
    addWithId(id, name, request, parent, start_ns, end_ns);
    return id;
}

SpanBuffer&
Tracer::newBuffer()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<SpanBuffer>(*this));
    return *buffers_.back();
}

std::vector<Span>
Tracer::merged() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_)
        all.insert(all.end(), b->spans_.begin(), b->spans_.end());
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
        return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                        : a.id < b.id;
    });
    return all;
}

std::vector<double>
selfSeconds(const std::vector<Span>& spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // Children's intervals, clipped to their parent.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            covered(spans.size());
    for (const Span& s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span& p = spans[it->second];
        const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
        const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
        if (lo < hi)
            covered[it->second].emplace_back(lo, hi);
    }

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = covered[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t union_ns = 0;
        std::uint64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                union_ns += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            union_ns += cur_hi - cur_lo;
        const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
        self[i] = static_cast<double>(dur - std::min(dur, union_ns))
                * 1e-9;
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span>& spans)
{
    std::map<std::string, SpanTotals> out;
    for (const Span& s : spans) {
        SpanTotals& t = out[s.name];
        ++t.count;
        t.busy_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    return out;
}

std::map<std::string, double>
selfByLayer(const std::vector<Span>& spans)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        out[name.substr(0, name.find('.'))] += self[i];
    }
    return out;
}

bool
writeSpans(const std::string& path, const std::vector<Span>& spans,
           std::uint64_t origin_ns)
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans) {
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << (s.start_ns - origin_ns)
            << ",\"end_ns\":" << (s.end_ns - origin_ns) << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
