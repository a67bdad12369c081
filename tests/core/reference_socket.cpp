// Reference copy of the plain Socket integration; see reference_socket.hpp.
#include "reference_socket.hpp"

#include <algorithm>

#include "arch/calibration.hpp"
#include "mem/bandwidth_model.hpp"
#include "platform/registry.hpp"
#include "power/power_model.hpp"
#include "power/vf_curve.hpp"
#include "util/rng.hpp"

namespace hsw::core::reference {

namespace cal = hsw::arch::cal;

ReferenceSocket::ReferenceSocket(const arch::Sku& sku, unsigned socket_id, bool turbo_enabled,
                                 rapl::DramMode dram_mode, std::uint64_t seed)
    : sku_{&sku},
      pcu_{sku, socket_id, &platform::backend_for(sku.generation).pcu_policy()},
      rapl_{sku.generation, socket_id, dram_mode, seed},
      thermal_{},
      cores_(sku.cores),
      turbo_enabled_{turbo_enabled},
      uncore_freq_{sku.uncore_min},
      uncore_voltage_{power::VfCurve::uncore_curve(socket_id).voltage_for(sku.uncore_min)},
      dram_peak_gbs_{mem::BandwidthModel{sku.generation, sku.cores}
                         .dram_read(mem::ConcurrencyConfig{sku.cores, 2}, sku.nominal_frequency,
                                    sku.uncore_max)
                         .as_gb_per_sec()},
      core_states_(sku.cores) {
    pcu_in_.cores.resize(sku.cores);
    util::Rng rng{seed * 131 + 7};
    for (auto& c : cores_) {
        c.requested_ratio = sku.nominal_frequency.ratio();
        c.frequency = sku.min_frequency;
        c.vf_factor = std::clamp(1.0 + rng.normal(0.0, cal::kPerCoreVoltageSigma),
                                 0.975, 1.025);
        c.voltage = power::VfCurve::core_curve(socket_id).voltage_for(sku.min_frequency) *
                    c.vf_factor;
    }
}

void ReferenceSocket::fill_pcu_inputs(pcu::PcuInputs& in, Time now, bool system_active,
                                      Frequency fastest_system_core) const {
    double traffic = 0.0;
    double current_intensity = 0.0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const SimCore& c = cores_[i];
        auto& ci = in.cores[i];
        ci = pcu::CoreInputs{};
        ci.state = c.state;
        ci.requested_ratio = c.requested_ratio;
        ci.hwp_request_raw = c.hwp_request_raw;
        if (c.state == cstates::CState::C0 && c.workload != nullptr) {
            const bool ht = c.threads >= 2;
            ci.avx_fraction = c.workload->avx_fraction;
            ci.avx512_fraction = c.workload->avx512_fraction;
            ci.stall_fraction = c.workload->stall_fraction;
            ci.cdyn_utilization = c.workload->cdyn_at(now, ht);
            traffic += c.workload->uncore_traffic;
            current_intensity = std::max(current_intensity, c.workload->current_intensity);
        }
    }
    in.epb = epb_;
    in.turbo_enabled = turbo_enabled_;
    in.uncore_traffic = std::min(1.0, traffic / static_cast<double>(cores_.size()));
    in.current_intensity = current_intensity;
    in.system_active = system_active;
    in.fastest_system_core = fastest_system_core;
    const auto limit = rapl_.active_power_limit();
    in.power_limit_watts = limit ? limit->as_watts() : 0.0;
    in.uncore_ratio_limit_raw = uncore_ratio_limit_raw_;
    in.hwp_enabled = hwp_enabled_;
    in.hwp_request_pkg_raw = hwp_request_pkg_raw_;
}

void ReferenceSocket::advance_to(Time now) {
    const Time dt = now - last_update_;
    if (dt <= Time::zero()) {
        last_update_ = now;
        return;
    }
    const double seconds = dt.as_seconds();

    const double tsc_ticks = sku_->nominal_frequency.as_hz() * seconds;
    Power cores_power = power::socket_static_power();
    double uncore_traffic = 0.0;
    double dram_demand = 0.0;
    rapl::ActivityVector av;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        SimCore& c = cores_[i];
        core_states_[i] = c.state;
        cores_power += core_power_at(c, last_update_);
        // --- core counters ---
        if (c.state == cstates::CState::C3) c.c3_residency += tsc_ticks;
        if (c.state == cstates::CState::C6) c.c6_residency += tsc_ticks;
        if (c.state != cstates::CState::C0) continue;
        const double cycles = c.frequency.as_hz() * seconds;
        c.aperf += cycles;
        c.core_cycles += cycles;
        c.mperf += sku_->nominal_frequency.as_hz() * seconds;
        if (c.workload == nullptr) continue;
        const bool ht = c.threads >= 2;
        const double ratio =
            uncore_freq_ > Frequency::zero() ? c.frequency / uncore_freq_ : 1.0;
        const double ipc = c.workload->ipc(ratio, ht);
        const double throughput = ipc * c.throughput_factor;
        c.instructions += throughput * cycles;
        c.stall_cycles += c.workload->stall_fraction * cycles;
        // --- energy inputs ---
        uncore_traffic += c.workload->uncore_traffic;
        dram_demand += dram_demand_gbs(c);
        const double f = c.frequency.as_hz();
        av.core_cycles_per_s += f;
        av.uops_per_s += ipc * f * 1.12;  // fused-uop expansion estimate
        av.avx_ops_per_s += ipc * f * c.workload->avx_fraction;
    }

    // --- uncore clock counter ---
    if (!uncore_halted_) uncore_cycles_ += uncore_freq_.as_hz() * seconds;

    // --- package C-state residency ---
    const auto pkg_state = cstates::resolve_package_state(core_states_, system_active_hint_);
    if (pkg_state == cstates::PackageCState::PC3) pkg_c3_residency_ += tsc_ticks;
    if (pkg_state == cstates::PackageCState::PC6) pkg_c6_residency_ += tsc_ticks;

    // --- energy ---
    const Power pkg = with_uncore_power(cores_power, uncore_traffic);
    const Bandwidth dram_bw = dram_traffic(dram_demand);
    av.dram_gbs = dram_bw.as_gb_per_sec();
    if (!uncore_halted_) av.uncore_cycles_per_s = uncore_freq_.as_hz();
    rapl_.integrate(pkg, power::dram_power(dram_bw), av, dt);
    thermal_.advance(pkg, dt);

    last_update_ = now;
}

const pcu::PcuOutputs* ReferenceSocket::pcu_tick(Time now, bool system_active,
                                                 Frequency fastest_system_core) {
    fill_pcu_inputs(pcu_in_, now, system_active, fastest_system_core);
    const pcu::PcuOutputs& out = pcu_.evaluate(pcu_in_, now);

    bool changed = out.uncore_frequency != uncore_freq_ ||
                   out.uncore_clock_halted != uncore_halted_;
    for (std::size_t i = 0; i < cores_.size() && !changed; ++i) {
        changed = out.cores[i].frequency != cores_[i].frequency ||
                  out.cores[i].throughput_factor != cores_[i].throughput_factor;
    }
    return changed ? &out : nullptr;
}

void ReferenceSocket::apply_grants(const pcu::PcuOutputs& out) {
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores_[i].frequency = out.cores[i].frequency;
        cores_[i].voltage = out.cores[i].voltage * cores_[i].vf_factor;
        cores_[i].avx_licensed = out.cores[i].avx_licensed;
        cores_[i].license_level = out.cores[i].license_level;
        cores_[i].throughput_factor = out.cores[i].throughput_factor;
    }
    uncore_freq_ = out.uncore_frequency;
    uncore_voltage_ = out.uncore_voltage;
    uncore_halted_ = out.uncore_clock_halted;
}

Power ReferenceSocket::core_power_at(const SimCore& c, Time now) const {
    const bool running = c.state == cstates::CState::C0;
    const power::CoreActivity activity{
        .cdyn_utilization = (running && c.workload != nullptr)
                                ? c.workload->cdyn_at(now, c.threads >= 2)
                                : 0.0,
        .clock_running = running,
        .power_gated = cstates::power_gated(c.state),
    };
    return power::core_power(activity, c.voltage, c.frequency);
}

Power ReferenceSocket::with_uncore_power(Power cores, double traffic_sum) const {
    if (uncore_halted_) return cores;
    const double traffic = std::min(1.0, traffic_sum / static_cast<double>(cores_.size()));
    return cores + power::uncore_power(traffic, uncore_voltage_, uncore_freq_);
}

Power ReferenceSocket::current_package_power(Time now) const {
    Power total = power::socket_static_power();
    double traffic = 0.0;
    for (const SimCore& c : cores_) {
        total += core_power_at(c, now);
        if (c.state == cstates::CState::C0 && c.workload != nullptr) {
            traffic += c.workload->uncore_traffic;
        }
    }
    return with_uncore_power(total, traffic);
}

double ReferenceSocket::dram_demand_gbs(const SimCore& c) const {
    const double scale = c.frequency / sku_->nominal_frequency;
    const double ht = c.threads >= 2 ? 1.15 : 1.0;
    return c.workload->dram_gbs_per_core * scale * ht;
}

Bandwidth ReferenceSocket::dram_traffic(double demand_gbs) const {
    return Bandwidth::gb_per_sec(std::min(demand_gbs, dram_peak_gbs_));
}

Bandwidth ReferenceSocket::current_dram_traffic() const {
    double demand = 0.0;
    for (const SimCore& c : cores_) {
        if (c.state == cstates::CState::C0 && c.workload != nullptr) demand += dram_demand_gbs(c);
    }
    return dram_traffic(demand);
}

Power ReferenceSocket::current_dram_power() const {
    return power::dram_power(current_dram_traffic());
}

}  // namespace hsw::core::reference
