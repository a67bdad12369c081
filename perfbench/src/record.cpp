#include "record.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace perfbench {

SpanBuffer::SpanBuffer(std::uint32_t rung, std::size_t reserve) : rung_{rung} {
    spans_.reserve(reserve);
}

std::uint32_t SpanBuffer::open(const char* name, std::uint64_t request,
                               std::uint32_t parent) {
    const std::int64_t t = now_ns();
    return add(name, request, parent, t, t);
}

void SpanBuffer::close(std::uint32_t id) { spans_.at(id - 1).end_ns = now_ns(); }

std::uint32_t SpanBuffer::add(const char* name, std::uint64_t request,
                              std::uint32_t parent, std::int64_t start_ns,
                              std::int64_t end_ns) {
    Span span;
    span.name = name;
    span.request = request;
    span.rung = rung_;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
    return span.id;
}

void Trace::merge(const SpanBuffer& buffer) {
    const auto offset = static_cast<std::uint32_t>(spans_.size());
    for (Span span : buffer.spans()) {
        span.id += offset;
        if (span.parent != 0) span.parent += offset;
        spans_.push_back(span);
    }
}

void Trace::link_rungs() {
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> roots;
    for (const Span& span : spans_) {
        if (span.parent == 0) roots.emplace(std::pair{span.rung, span.request}, span.id);
    }
    for (Span& span : spans_) {
        if (span.parent != 0 || span.rung == 0) continue;
        const auto outer = roots.find({span.rung - 1, span.request});
        if (outer != roots.end()) span.parent = outer->second;
    }
}

namespace {

std::int64_t self_time(const Span& span, const std::vector<const Span*>& children) {
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    std::int64_t replayed = 0;
    for (const Span* child : children) {
        if (child->rung != span.rung) {
            replayed += child->duration_ns();
            continue;
        }
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : intervals) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
    }
    return span.duration_ns() - covered - replayed;
}

/// children[id - 1] lists the spans whose parent is `id`.
std::vector<std::vector<const Span*>> index_children(const std::vector<Span>& spans) {
    std::vector<std::vector<const Span*>> children(spans.size());
    for (const Span& s : spans) {
        if (s.parent != 0) children.at(s.parent - 1).push_back(&s);
    }
    return children;
}

}  // namespace

std::int64_t Trace::self_ns(const Span& span) const {
    std::vector<const Span*> children;
    for (const Span& s : spans_) {
        if (s.parent == span.id) children.push_back(&s);
    }
    return self_time(span, children);
}

std::map<std::string, LayerTime> Trace::layer_times() const {
    const auto children = index_children(spans_);
    std::map<std::string, LayerTime> out;
    for (const Span& s : spans_) {
        LayerTime& layer = out[s.name];
        ++layer.spans;
        layer.total_ns += s.duration_ns();
        layer.self_total_ns += self_time(s, children[s.id - 1]);
    }
    return out;
}

void Trace::write_jsonl(std::ostream& out) const {
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    const auto children = index_children(spans_);
    for (const Span& s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
            << ",\"rung\":" << s.rung << ",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"start_ns\":" << s.start_ns - origin
            << ",\"end_ns\":" << s.end_ns - origin
            << ",\"self_ns\":" << self_time(s, children[s.id - 1]) << "}\n";
    }
}

}  // namespace perfbench
