// Discrete-event simulation kernel.
//
// The simulator owns a slab of event records indexed by an intrusive 4-ary
// min-heap. Ties are broken by insertion sequence number, so runs are
// bit-for-bit replayable. Components (PCU, RAPL, meter, workload phases)
// schedule themselves; between events all machine state is constant and
// quantities integrate in closed form, which is what makes minute-long
// simulated experiments run in milliseconds of host time.
//
// Hot-path design (the engine fans one survey into 32 simulator-bound jobs,
// so dispatch cost is cold-query latency):
//  - Callbacks are util::InlineFunction: captures up to kCallbackInlineBytes
//    live inside the event record, so steady-state scheduling and dispatch
//    never touch the allocator.
//  - Event records live in a slab with a free list; the heap stores
//    (when, seq, slot) entries, so sift comparisons never leave the compact
//    heap array, and each record knows its heap position, which makes
//    cancel() an O(log n) in-heap removal instead of a tombstone.
//  - Periodic events are first-class records: the period is stored in the
//    event, and after each fire the top entry's key is bumped in place and
//    restored with a single sift-down -- no per-tick closure chain, no
//    pop-then-push round trip.
//
// Determinism: events are dispatched in strict (when, seq) order, and seq
// numbers are allocated in exactly the same program order as the previous
// std::function-based engine (a periodic's next occurrence takes its seq
// *after* the callback body ran, like the old reschedule chain did), so
// every byte of survey output is preserved.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace hsw::sim {

using util::Time;

/// Handle for cancelling a scheduled one-shot event.
struct EventId {
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    [[nodiscard]] bool valid() const { return seq != 0; }
};

class Simulator {
public:
    /// Inline capture budget for event callbacks. The simulation core's
    /// callbacks capture a few words (the PCU grant-apply lambda: this +
    /// socket id, reading the socket's staged grant), so every scheduling
    /// call stays allocation-free.
    static constexpr std::size_t kCallbackInlineBytes = 88;
    using Callback = util::InlineFunction<void(Time), kCallbackInlineBytes>;

    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] Time now() const { return now_; }

    /// Schedule `cb` at absolute time `t` (must be >= now()).
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    EventId schedule_at(Time t, F&& cb) {
        return schedule_raw(
            t, Callback{[fn = std::forward<F>(cb)](Time) mutable { fn(); }},
            Time::zero(), 0);
    }

    /// Schedule `cb` after a relative delay.
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    EventId schedule_after(Time dt, F&& cb) {
        return schedule_at(now_ + dt, std::forward<F>(cb));
    }

    /// Cancel a pending one-shot. O(log n) in-heap removal. Returns false
    /// for stale ids (already fired, already cancelled, or never scheduled)
    /// without retaining any per-id state.
    bool cancel(EventId id);

    /// Schedule `cb(fire_time)` at `start`, then every `period` (> 0)
    /// forever, until cancelled through `cancel_periodic`. The event record
    /// is rescheduled in place -- a free-running periodic costs zero
    /// allocations per tick.
    template <typename F>
        requires std::invocable<std::decay_t<F>&, Time>
    std::uint64_t schedule_periodic(Time start, Time period, F&& cb) {
        const std::uint64_t pid = next_periodic_++;
        schedule_raw(start, Callback{std::forward<F>(cb)}, period, pid);
        return pid;
    }

    /// Stop a periodic chain. Returns false for stale ids (unknown or
    /// already cancelled) without retaining any per-id state. Safe to call
    /// from inside the periodic's own callback.
    bool cancel_periodic(std::uint64_t periodic_id);

    /// Run all events with timestamp <= t, then set now() = t.
    void run_until(Time t);

    /// Process the single next event if any; returns false when idle.
    bool step();

    /// Run until the event queue drains (use with care: periodic tasks never
    /// drain; prefer run_until).
    void run_all();

    /// Exact number of scheduled-and-not-yet-fired events (periodic chains
    /// count their single pending occurrence).
    [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
    [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

    /// Events dispatched by any Simulator on the calling thread since
    /// thread start. The experiment engine samples this around a job to
    /// report events/sec per job without threading a counter through the
    /// opaque job closure.
    [[nodiscard]] static std::uint64_t thread_events_processed();

    /// Capacity snapshot for allocation-freeness tests: steady state means
    /// none of these change across a dispatch window.
    struct MemoryStats {
        std::size_t slab_capacity = 0;  // event records allocated
        std::size_t heap_capacity = 0;  // heap index vector capacity
        std::size_t live_events = 0;    // scheduled or mid-dispatch
        std::size_t free_slots = 0;     // slab records on the free list
    };
    [[nodiscard]] MemoryStats memory_stats() const;

    ~Simulator();

private:
    static constexpr std::uint32_t kNpos = std::numeric_limits<std::uint32_t>::max();

    struct Event {
        Time when;
        std::uint64_t seq = 0;
        Time period = Time::zero();     // zero => one-shot
        std::uint64_t periodic_id = 0;  // nonzero => periodic
        std::uint32_t heap_pos = kNpos;
        std::uint32_t next_free = kNpos;
        bool live = false;     // slot holds a scheduled (or running) event
        bool running = false;  // periodic currently inside its callback
        Callback cb;
    };

    /// Heap entries carry their own ordering key: sift compares stay inside
    /// the (hot, compact) heap array instead of chasing slab records, which
    /// is what keeps dispatch memory-bound work to one stream.
    struct HeapEntry {
        Time when;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };

    EventId schedule_raw(Time t, Callback cb, Time period, std::uint64_t periodic_id);
    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot);

    /// Push accumulated schedule/dispatch/cancel deltas into the obs
    /// registry. Deltas are plain members so step() -- the CI-gated hot
    /// path -- never touches an atomic; run_until/run_all/dtor flush.
    void flush_telemetry();

    [[nodiscard]] static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
        if (a.when != b.when) return a.when < b.when;
        return a.seq < b.seq;
    }
    void heap_push(HeapEntry entry);
    void heap_remove(std::uint32_t slot);
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);

    Time now_ = Time::zero();
    std::uint64_t next_seq_ = 1;
    std::uint64_t next_periodic_ = 1;
    std::uint64_t processed_ = 0;
    std::uint64_t scheduled_total_ = 0;   // schedule_raw calls (incl. periodics)
    std::uint64_t cancelled_total_ = 0;   // successful cancel/cancel_periodic
    std::uint64_t heap_peak_ = 0;         // max heap depth seen
    std::uint64_t flushed_processed_ = 0;
    std::uint64_t flushed_scheduled_ = 0;
    std::uint64_t flushed_cancelled_ = 0;
    std::vector<Event> slab_;
    std::vector<HeapEntry> heap_;  // ordered by (when, seq)
    std::uint32_t free_head_ = kNpos;
    std::unordered_map<std::uint64_t, std::uint32_t> periodic_slots_;
};

}  // namespace hsw::sim
