// Engine-internals tests for the slab/heap event core: exact pending
// counts, stale-handle cancels, in-place periodic rescheduling, and the
// allocation-free steady-state guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "support/heap_counter.hpp"
#include "util/inline_function.hpp"

namespace hsw::sim {
namespace {

using util::Time;

TEST(EventEngine, PendingEventsIsExact) {
    Simulator sim;
    EXPECT_EQ(sim.pending_events(), 0u);

    const EventId a = sim.schedule_at(Time::us(10), [] {});
    const EventId b = sim.schedule_at(Time::us(20), [] {});
    sim.schedule_periodic(Time::us(5), Time::us(5), [](Time) {});
    EXPECT_EQ(sim.pending_events(), 3u);

    EXPECT_TRUE(sim.cancel(a));
    EXPECT_EQ(sim.pending_events(), 2u);

    sim.run_until(Time::us(12));  // fires the periodic at 5 and 10
    EXPECT_EQ(sim.pending_events(), 2u);  // b + rescheduled periodic

    EXPECT_TRUE(sim.cancel(b));
    EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventEngine, CancelStaleIdsReturnsFalseWithoutStateGrowth) {
    Simulator sim;
    EXPECT_FALSE(sim.cancel(EventId{}));  // never scheduled

    const EventId a = sim.schedule_at(Time::us(1), [] {});
    sim.run_until(Time::us(2));
    EXPECT_FALSE(sim.cancel(a));  // already fired

    const EventId b = sim.schedule_at(Time::us(5), [] {});
    EXPECT_TRUE(sim.cancel(b));
    EXPECT_FALSE(sim.cancel(b));  // already cancelled

    // A stale cancel must not poison the slot's current occupant.
    const EventId c = sim.schedule_at(Time::us(9), [] {});
    EXPECT_FALSE(sim.cancel(b));  // b's slot may now belong to c
    EXPECT_EQ(sim.pending_events(), 1u);
    bool fired = false;
    sim.schedule_at(Time::us(10), [&fired] { fired = true; });
    sim.run_until(Time::us(10));
    EXPECT_TRUE(fired);
    (void)c;
}

TEST(EventEngine, CancelPeriodicStaleReturnsFalse) {
    Simulator sim;
    EXPECT_FALSE(sim.cancel_periodic(0));
    EXPECT_FALSE(sim.cancel_periodic(12345));

    const auto pid = sim.schedule_periodic(Time::us(1), Time::us(1), [](Time) {});
    EXPECT_TRUE(sim.cancel_periodic(pid));
    EXPECT_FALSE(sim.cancel_periodic(pid));
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventEngine, PeriodicCancelFromOwnCallbackStopsTheChain) {
    Simulator sim;
    int fires = 0;
    std::uint64_t pid = 0;
    pid = sim.schedule_periodic(Time::us(1), Time::us(1), [&](Time) {
        if (++fires == 3) {
            EXPECT_TRUE(sim.cancel_periodic(pid));
        }
    });
    sim.run_until(Time::us(100));
    EXPECT_EQ(fires, 3);
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_FALSE(sim.cancel_periodic(pid));
}

TEST(EventEngine, PeriodicCancelThenRescheduleSameTick) {
    // Cancel a periodic and schedule its replacement at the very tick the
    // old one would have fired next: exactly one of the two fires there.
    Simulator sim;
    std::vector<int> fired;
    const auto pid = sim.schedule_periodic(Time::us(10), Time::us(10),
                                           [&](Time) { fired.push_back(1); });
    sim.run_until(Time::us(10));
    ASSERT_EQ(fired, (std::vector<int>{1}));

    EXPECT_TRUE(sim.cancel_periodic(pid));
    const auto pid2 = sim.schedule_periodic(Time::us(20), Time::us(10),
                                            [&](Time) { fired.push_back(2); });
    sim.run_until(Time::us(30));
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 2}));
    EXPECT_TRUE(sim.cancel_periodic(pid2));
}

TEST(EventEngine, PeriodicRescheduleFromOwnCallbackSameTickKeepsOrdering) {
    // A periodic that cancels itself mid-callback and plants a replacement
    // at its own fire time: the replacement was scheduled "now", which is
    // legal, and fires in the same run_until pass.
    Simulator sim;
    std::vector<int> fired;
    std::uint64_t pid = 0;
    pid = sim.schedule_periodic(Time::us(10), Time::us(10), [&](Time t) {
        fired.push_back(1);
        EXPECT_TRUE(sim.cancel_periodic(pid));
        sim.schedule_at(t, [&] { fired.push_back(2); });
    });
    sim.run_until(Time::us(10));
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventEngine, MemoryStatsTracksSlabAndFreeList) {
    Simulator sim;
    const auto e0 = sim.memory_stats();
    EXPECT_EQ(e0.live_events, 0u);

    std::vector<EventId> ids;
    ids.reserve(64);
    for (int i = 0; i < 64; ++i) {
        ids.push_back(sim.schedule_at(Time::us(1 + i), [] {}));
    }
    const auto e1 = sim.memory_stats();
    EXPECT_EQ(e1.live_events, 64u);
    EXPECT_GE(e1.slab_capacity, 64u);

    for (const EventId& id : ids) EXPECT_TRUE(sim.cancel(id));
    const auto e2 = sim.memory_stats();
    EXPECT_EQ(e2.live_events, 0u);
    EXPECT_EQ(e2.free_slots, e2.slab_capacity);
    EXPECT_EQ(e2.slab_capacity, e1.slab_capacity);  // slots recycled, not freed
}

TEST(EventEngine, SteadyStateDispatchIsAllocationFree) {
    Simulator sim;

    // A self-rescheduling ring of one-shots plus a handful of periodics --
    // the simulation core's steady-state shape.
    struct Ring {
        Simulator* sim;
        std::uint64_t* fired;
        void operator()() const {
            ++*fired;
            sim->schedule_after(Time::ns(250), Ring{*this});
        }
    };
    static_assert(Simulator::Callback::fits_inline<Ring>);

    std::uint64_t fired = 0;
    for (int i = 0; i < 32; ++i) {
        sim.schedule_after(Time::ns(100 + i), Ring{&sim, &fired});
    }
    for (int i = 0; i < 8; ++i) {
        sim.schedule_periodic(Time::ns(150 + i), Time::ns(300 + 7 * i),
                              [&fired](Time) { ++fired; });
    }

    // Warm up: slab/heap reach their steady-state capacities.
    sim.run_until(Time::us(50));
    const auto warm = sim.memory_stats();
    const std::uint64_t fired_warm = fired;

    const std::uint64_t inline_spills_before = util::inline_function_heap_allocations();
    const std::uint64_t heap_allocs_before = test_support::heap_allocations();
    sim.run_until(Time::ms(2));
    const std::uint64_t heap_allocs_after = test_support::heap_allocations();
    const std::uint64_t inline_spills_after = util::inline_function_heap_allocations();
    const auto steady = sim.memory_stats();

    EXPECT_GT(fired - fired_warm, 10000u);  // the window actually dispatched
    EXPECT_EQ(heap_allocs_after, heap_allocs_before);
    EXPECT_EQ(inline_spills_after, inline_spills_before);
    EXPECT_EQ(steady.slab_capacity, warm.slab_capacity);
    EXPECT_EQ(steady.heap_capacity, warm.heap_capacity);
}

TEST(EventEngine, ThreadEventsProcessedTicksWithDispatch) {
    const std::uint64_t before = Simulator::thread_events_processed();
    Simulator sim;
    for (int i = 0; i < 10; ++i) sim.schedule_at(Time::us(i), [] {});
    sim.run_all();
    EXPECT_EQ(Simulator::thread_events_processed(), before + 10);
    EXPECT_EQ(sim.processed_events(), 10u);
}

TEST(EventEngine, SchedulingInThePastThrows) {
    Simulator sim;
    sim.schedule_at(Time::us(5), [] {});
    sim.run_until(Time::us(10));
    EXPECT_THROW(sim.schedule_at(Time::us(9), [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_periodic(Time::us(20), Time::zero(), [](Time) {}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace hsw::sim
