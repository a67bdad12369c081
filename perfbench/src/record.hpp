// The benchmark's own in-memory span recorder.
//
// The traced run replays a workload's request sequence once per layer
// rung, outermost to innermost. Every span carries the index of the
// request it belongs to and the rung it was recorded in. Inside one rung,
// spans nest in time (a layer call around its inner calls). Across rungs,
// the outermost span of rung k+1 is linked as the child of the outermost
// span of rung k for the same request: it replays the work that span did
// below its own layer. So each request index ends up with one
// parent-linked tree, and a layer's self time is its span's duration minus
// what its children cover.
//
// This recorder is deliberately separate from obs::trace: a change to the
// program's tracing must not move the ruler the benchmark measures with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name = "";      // string literal: spans never own their name
    std::uint64_t request = 0;  // index in the workload's request sequence
    std::uint32_t rung = 0;     // ladder rung the span was recorded in
    std::uint32_t id = 0;       // 1-based, unique within a Trace
    std::uint32_t parent = 0;   // 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans recorded by one replay thread. Not thread-safe: each thread owns
/// one buffer, and buffers are merged into a Trace after the replay.
class SpanBuffer {
public:
    explicit SpanBuffer(std::uint32_t rung, std::size_t reserve = 0);

    /// Starts a span now and returns its buffer-local id.
    std::uint32_t open(const char* name, std::uint64_t request, std::uint32_t parent = 0);
    /// Ends span `id` now.
    void close(std::uint32_t id);
    /// Records a span timed elsewhere (e.g. a job the engine reports only
    /// after it finished).
    std::uint32_t add(const char* name, std::uint64_t request, std::uint32_t parent,
                      std::int64_t start_ns, std::int64_t end_ns);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    std::uint32_t rung_;
    std::vector<Span> spans_;
};

/// Self-time totals of one span name over a trace.
struct LayerTime {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;       // summed durations
    std::int64_t self_total_ns = 0;  // summed self times
};

class Trace {
public:
    /// Appends the buffer's spans, renumbering ids (and in-buffer parent
    /// links) so they stay unique across buffers.
    void merge(const SpanBuffer& buffer);

    /// Parents each root span of rung k+1 to the root span of rung k with
    /// the same request index, so every request index forms one tree.
    /// Roots of rung 0 stay roots. A rung-k+1 root whose request has no
    /// rung-k root is left a root.
    void link_rungs();

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Duration of `span` minus what its children cover. A child recorded
    /// in the same rung covers its interval, clipped to the parent's, and
    /// overlapping children count once. A child from another rung is a
    /// replay that ran at a different time, so it covers its duration.
    /// Replay noise can therefore make a self time slightly negative; it is
    /// reported as measured.
    [[nodiscard]] std::int64_t self_ns(const Span& span) const;

    /// Per span name: count, summed duration and summed self time.
    [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

    /// One JSON object per line: name, request, rung, id, parent, start_ns,
    /// end_ns, self_ns (times relative to the earliest span).
    void write_jsonl(std::ostream& out) const;

private:
    std::vector<Span> spans_;
};

}  // namespace perfbench
