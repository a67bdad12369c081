// The ladder's bottom rungs, measured standalone: the event kernel alone
// (periodic events with no model work behind them) and a full node model
// running FIRESTARTER over a fixed simulated window. Their ratio is the
// node model's share of the host cost of one simulated event.
#include "core/node.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "workloads/mixes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hsw::util::Time;

/// Host ns per event of a bare Simulator: 64 periodic tasks with staggered
/// phases and periods, the shape of a node's PCU/RAPL/meter grid.
double kernel_ns_per_event() {
    hsw::sim::Simulator sim;
    std::uint64_t fired = 0;
    for (unsigned i = 0; i < 64; ++i) {
        sim.schedule_periodic(Time::ns(i + 1), Time::us(7) + Time::ns(13 * i),
                              [&fired](Time) { ++fired; });
    }
    const std::int64_t t0 = now_ns();
    sim.run_until(Time::ms(200));
    return static_cast<double>(now_ns() - t0) / static_cast<double>(sim.processed_events());
}

/// Host ns per event of the dual-socket node running FIRESTARTER at turbo.
double node_ns_per_event() {
    hsw::core::Node node;
    node.set_all_workloads(&hsw::workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(50));  // settle the p-states first
    const std::uint64_t before = node.simulator().processed_events();
    const std::int64_t t0 = now_ns();
    node.run_for(Time::sec(2));
    return static_cast<double>(now_ns() - t0) /
           static_cast<double>(node.simulator().processed_events() - before);
}

}  // namespace

void trace_sim_core(Result& out) {
    std::vector<double> kernel, node;
    for (int i = 0; i < 3; ++i) {
        kernel.push_back(kernel_ns_per_event());
        node.push_back(node_ns_per_event());
    }
    const double k = median(kernel);
    const double n = median(node);
    out.add("sim.kernel_ns_per_event", k, "ns");
    out.add("core.node_ns_per_event", n, "ns");
    out.add("core.node_share", 1.0 - k / n, "ratio");
}

}  // namespace perfbench
