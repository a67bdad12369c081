#include "workloads/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace hsw::workloads {

double Workload::modulation_factor(Time t) const {
    switch (modulation) {
        case Modulation::Constant:
            return 1.0;
        case Modulation::Sinusoid: {
            const double phase = 2.0 * std::numbers::pi * t.as_seconds() /
                                 std::max(modulation_period_s, 1e-9);
            return 1.0 - modulation_depth * 0.5 + modulation_depth * 0.5 * std::sin(phase);
        }
        case Modulation::SquareWave: {
            const double period = std::max(modulation_period_s, 1e-9);
            const bool high = std::fmod(t.as_seconds(), period) < period * 0.5;
            return high ? 1.0 : 1.0 - modulation_depth;
        }
    }
    return 1.0;
}

Time Workload::steady_through(Time t) const {
    if (modulation == Modulation::Constant) return Time::max();
    if (modulation != Modulation::SquareWave || t < Time::zero()) return t;
    // fmod() is exact and t.as_seconds() is monotone in t, so the factor
    // switches where the exact phase crosses a half period: switches lie
    // half a period apart, and a quarter period after `t` holds at most
    // one. Bisect for it.
    const double period = std::max(modulation_period_s, 1e-9);
    const auto quarter_ns = static_cast<std::int64_t>(period * 0.25e9);
    if (quarter_ns < 2) return t;
    const double factor = modulation_factor(t);
    Time held = t;
    Time moved = t + Time::ns(quarter_ns);
    if (modulation_factor(moved) == factor) return moved;
    while (moved - held > Time::ns(1)) {
        const Time mid = held + Time::ns((moved - held).as_ns() / 2);
        if (modulation_factor(mid) == factor) {
            held = mid;
        } else {
            moved = mid;
        }
    }
    return held;
}

double Workload::cdyn_at(Time t, bool hyperthreading) const {
    return (hyperthreading ? cdyn_ht : cdyn_noht) * modulation_factor(t);
}

double Workload::ipc(double core_uncore_ratio, bool hyperthreading) const {
    const double unity = hyperthreading ? ipc_unity_ht : ipc_unity_noht;
    return std::max(0.05, unity - ipc_uncore_sens * (core_uncore_ratio - 1.0));
}

const Workload& idle() {
    static constexpr Workload w{.name = "idle"};
    return w;
}

}  // namespace hsw::workloads
