// Steady-state cost guarantees of the node model: a TDP-limited
// FIRESTARTER run makes no heap allocations, its PCU ticks reuse the
// memoized power terms and budget searches instead of re-evaluating them,
// and its sockets' advances reuse the memoized operating point.
// None of it may hide the p-state grid's records from trace observers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/node.hpp"
#include "support/heap_counter.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {
namespace {

using util::Time;

TEST(NodeCost, SteadyFirestarterMakesNoHeapAllocations) {
    Node node;  // Haswell-EP
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(10));  // warm-up: buffers reach their sizes

    const std::uint64_t events_before = node.simulator().processed_events();
    const std::uint64_t allocs_before = test_support::heap_allocations();
    node.run_for(Time::ms(100));
    const std::uint64_t allocs_after = test_support::heap_allocations();

    // ~200 PCU ticks, the RAPL refreshes and meter samples dispatched.
    EXPECT_GT(node.simulator().processed_events() - events_before, 500u);
    EXPECT_EQ(allocs_after, allocs_before);
}

TEST(NodeCost, SteadyFirestarterSecondReusesPowerTermsAndSearches) {
    Node node;
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(50));  // settle the p-states and the licenses

    pcu::PcuCounters before[2];
    for (unsigned s = 0; s < 2; ++s) before[s] = node.socket(s).pcu().counters();
    node.run_for(Time::sec(1));
    for (unsigned s = 0; s < 2; ++s) {
        const pcu::PcuCounters& after = node.socket(s).pcu().counters();
        const std::uint64_t ticks = after.ticks - before[s].ticks;
        const std::uint64_t terms = after.power_terms - before[s].power_terms;
        const std::uint64_t reuses = after.search_reuses - before[s].search_reuses;
        // The 500 us opportunity grid: ~2000 ticks per socket-second.
        EXPECT_GT(ticks, 1950u) << "socket " << s;
        EXPECT_LT(ticks, 2050u) << "socket " << s;
        // Fewer than one core power term per tick on average (a fresh
        // evaluation of every search would take ~94).
        EXPECT_LT(terms, ticks) << "socket " << s;
        // The dithering operating point revisits a handful of search
        // inputs; nearly every tick reuses one.
        EXPECT_GT(reuses * 100, ticks * 99) << "socket " << s;
    }
}

TEST(NodeCost, SteadyFirestarterSecondReusesOperatingPoint) {
    Node node;
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(50));  // settle the p-states and the licenses

    SocketCounters before[2];
    for (unsigned s = 0; s < 2; ++s) before[s] = node.socket(s).counters();
    node.run_for(Time::sec(1));
    for (unsigned s = 0; s < 2; ++s) {
        const SocketCounters& after = node.socket(s).counters();
        const std::uint64_t advances = after.advances - before[s].advances;
        const std::uint64_t reuses =
            after.operating_point_reuses - before[s].operating_point_reuses;
        // Both sockets' grid ticks, the RAPL refreshes and the meter: at
        // least ~5000 integrating advances per socket-second.
        EXPECT_GT(advances, 4000u) << "socket " << s;
        // Clocks move only when a grant changes them; between grants the
        // operating point holds.
        EXPECT_GT(reuses * 100, advances * 95) << "socket " << s;
    }
}

TEST(NodeCost, GridRecordsReachObserversWhileRecordingIsOff) {
    // Audited surveys run with recording off and watch the grid through an
    // observer; the PstateGrid invariant reads exactly these two records.
    Node node;
    ASSERT_FALSE(node.trace().enabled());
    unsigned opportunities[2] = {0, 0};
    unsigned completes[2] = {0, 0};
    node.trace().add_observer([&](const sim::TraceView& v) {
        for (unsigned s = 0; s < 2; ++s) {
            if (v.subject != "socket" + std::to_string(s)) continue;
            if (v.category == "pcu" && v.detail == "opportunity") ++opportunities[s];
            if (v.category == "pstate" && v.detail == "change complete") ++completes[s];
        }
    });
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(20));

    for (unsigned s = 0; s < 2; ++s) {
        // ~40 opportunities on the 500 us grid; a tick grants only when
        // its outputs change, which the turbo request makes happen.
        EXPECT_GE(opportunities[s], 35u) << "socket " << s;
        EXPECT_GE(completes[s], 1u) << "socket " << s;
        EXPECT_LE(completes[s], opportunities[s]) << "socket " << s;
    }
    EXPECT_TRUE(node.trace().empty());
}

}  // namespace
}  // namespace hsw::core
