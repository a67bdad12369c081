#include "core/socket.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>

#include "arch/calibration.hpp"
#include "platform/registry.hpp"
#include "power/power_model.hpp"
#include "util/rng.hpp"

namespace hsw::core {

namespace cal = hsw::arch::cal;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

double Socket::CdynCache::lookup(const SimCore& c, Time t) {
    const bool ht = c.threads >= 2;
    std::size_t slot = slots_.size();
    for (std::size_t i = 0; i < size_ && slot == slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (s.workload != c.workload || s.ht != ht) continue;
        last_ = i;
        if (s.from <= t && t <= s.through) return s.cdyn;
        slot = i;
    }
    if (slot == slots_.size() && size_ < slots_.size()) slot = size_++;
    if (slot == slots_.size()) {
        slot = next_;
        next_ = (next_ + 1) % slots_.size();
    }
    last_ = slot;
    slots_[slot] = Slot{.workload = c.workload,
                 .ht = ht,
                 .from = t,
                 .through = c.workload->steady_through(t),
                 .cdyn = c.workload->cdyn_at(t, ht)};
    return slots_[slot].cdyn;
}

Socket::Socket(const arch::Sku& sku, unsigned socket_id, bool turbo_enabled,
               rapl::DramMode dram_mode, std::uint64_t seed)
    : sku_{&sku},
      id_{socket_id},
      topo_{arch::make_die_topology(sku.cores)},
      pcu_{sku, socket_id, &platform::backend_for(sku.generation).pcu_policy()},
      rapl_{sku.generation, socket_id, dram_mode, seed},
      bw_model_{sku.generation, sku.cores},
      thermal_{},
      cores_(sku.cores),
      turbo_enabled_{turbo_enabled},
      uncore_freq_{sku.uncore_min},
      uncore_voltage_{power::VfCurve::uncore_curve(socket_id).voltage_for(sku.uncore_min)},
      dram_peak_gbs_{bw_model_
                         .dram_read(mem::ConcurrencyConfig{sku.cores, 2}, sku.nominal_frequency,
                                    sku.uncore_max)
                         .as_gb_per_sec()},
      core_states_(sku.cores) {
    for (OperatingPoint& p : points_) {
        p.keys.resize(sku.cores);
        p.terms.resize(sku.cores);
    }
    pcu_in_.cores.resize(sku.cores);
    util::Rng rng{seed * 131 + 7};
    for (auto& c : cores_) {
        c.requested_ratio = sku.nominal_frequency.ratio();
        c.frequency = sku.min_frequency;
        // Per-core silicon variation (Section III: core voltages for a
        // given p-state differ), clamped to +-2.5 %.
        c.vf_factor = std::clamp(1.0 + rng.normal(0.0, cal::kPerCoreVoltageSigma),
                                 0.975, 1.025);
        c.voltage = power::VfCurve::core_curve(socket_id).voltage_for(sku.min_frequency) *
                    c.vf_factor;
    }
}

// hsw:hot-path -- every event syncs both sockets and every opportunity
// tick fills the PCU inputs; neither allocates.
void Socket::fill_pcu_inputs(pcu::PcuInputs& in, Time now, bool system_active,
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
            ci.avx_fraction = c.workload->avx_fraction;
            ci.avx512_fraction = c.workload->avx512_fraction;
            ci.stall_fraction = c.workload->stall_fraction;
            ci.cdyn_utilization = cdyn_.of(c, now);
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

const pcu::PcuOutputs* Socket::pcu_tick(Time now, bool system_active,
                                        Frequency fastest_system_core) {
    fill_pcu_inputs(pcu_in_, now, system_active, fastest_system_core);
    const pcu::PcuOutputs& out = pcu_.evaluate(pcu_in_, now);

    // Suppress the apply event when nothing changes (common in steady state).
    bool changed = out.uncore_frequency != uncore_freq_ ||
                   out.uncore_clock_halted != uncore_halted_;
    for (std::size_t i = 0; i < cores_.size() && !changed; ++i) {
        changed = out.cores[i].frequency != cores_[i].frequency ||
                  out.cores[i].throughput_factor != cores_[i].throughput_factor;
    }
    return changed ? &out : nullptr;
}

// Clocks, voltages and workloads move only at grants, assignments, parks
// and wakes, and cdyn only at a modulated workload's phase changes, so
// most advances find the operating point in force, or one the socket
// dithered away from, unchanged. A new one re-evaluates only the cores
// whose key moved and sums the terms in core order, exactly as a fresh
// pass would.
Socket::CoreKey Socket::key_of(const SimCore& c) const {
    return CoreKey{.valid = true,
                   .state = c.state,
                   .workload = c.workload,
                   .threads = c.threads,
                   .frequency_bits = bits(c.frequency.as_hz()),
                   .voltage_bits = bits(c.voltage.as_volts()),
                   .cdyn_bits = bits(cdyn_.of(c, last_update_))};
}

bool Socket::matches(const OperatingPoint& p) const {
    if (!p.valid || p.uncore_frequency_bits != bits(uncore_freq_.as_hz()) ||
        p.uncore_voltage_bits != bits(uncore_voltage_.as_volts()) ||
        p.uncore_halted != uncore_halted_ || p.system_active != system_active_hint_) {
        return false;
    }
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const SimCore& c = cores_[i];
        const CoreKey& k = p.keys[i];
        if (!k.valid || k.state != c.state || k.workload != c.workload ||
            k.threads != c.threads || k.frequency_bits != bits(c.frequency.as_hz()) ||
            k.voltage_bits != bits(c.voltage.as_volts())) {
            return false;
        }
        // cdyn is a function of the C-state, workload and threading at one
        // instant: a core that shares them and its cdyn bits with the core
        // before it, already checked, needs no evaluation.
        const CoreKey* prev = i > 0 ? &p.keys[i - 1] : nullptr;
        if (prev != nullptr && prev->state == k.state && prev->workload == k.workload &&
            prev->threads == k.threads && prev->cdyn_bits == k.cdyn_bits) {
            continue;
        }
        if (k.cdyn_bits != bits(cdyn_.of(c, last_update_))) return false;
    }
    return true;
}

void Socket::refresh_operating_point() {
    const std::uint64_t use = counters_.advances;
    std::size_t victim = current_ == 0 ? 1 : 0;
    for (std::size_t j = 0; j < points_.size(); ++j) {
        const std::size_t k = (current_ + j) % points_.size();
        if (matches(points_[k])) {
            current_ = k;
            points_[k].last_use = use;
            ++counters_.operating_point_reuses;
            return;
        }
        if (k != current_ && points_[k].last_use < points_[victim].last_use) victim = k;
    }

    // Evaluate into the least recently used slot, keeping the terms of the
    // cores whose key held. IPC reads the core/uncore clock ratio, so an
    // uncore clock move re-evaluates every core.
    const OperatingPoint& from = points_[current_];
    OperatingPoint& to = points_[victim];
    const bool uncore_moved = from.uncore_frequency_bits != bits(uncore_freq_.as_hz());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        to.keys[i] = key_of(cores_[i]);
        if (from.valid && !uncore_moved && from.keys[i] == to.keys[i]) {
            to.terms[i] = from.terms[i];
            continue;
        }
        ++counters_.core_terms;
        const SimCore& c = cores_[i];
        CoreTerm& t = to.terms[i];
        t = CoreTerm{.power = core_power_term(c, cdyn_.of(c, last_update_))};
        if (c.state != cstates::CState::C0 || c.workload == nullptr) continue;
        const double ratio =
            uncore_freq_ > Frequency::zero() ? c.frequency / uncore_freq_ : 1.0;
        t.ipc = c.workload->ipc(ratio, c.threads >= 2);
        t.dram_gbs = dram_demand_gbs(c);
    }

    Power cores_power = power::socket_static_power();
    double uncore_traffic = 0.0;
    double dram_demand = 0.0;
    rapl::ActivityVector av;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const SimCore& c = cores_[i];
        const CoreTerm& t = to.terms[i];
        core_states_[i] = c.state;
        cores_power += t.power;
        if (c.state != cstates::CState::C0 || c.workload == nullptr) continue;
        uncore_traffic += c.workload->uncore_traffic;
        dram_demand += t.dram_gbs;
        const double f = c.frequency.as_hz();
        av.core_cycles_per_s += f;
        av.uops_per_s += t.ipc * f * 1.12;  // fused-uop expansion estimate
        av.avx_ops_per_s += t.ipc * f * c.workload->avx_fraction;
    }
    const Bandwidth dram_bw = dram_traffic(dram_demand);
    av.dram_gbs = dram_bw.as_gb_per_sec();
    if (!uncore_halted_) av.uncore_cycles_per_s = uncore_freq_.as_hz();
    to.valid = true;
    to.last_use = use;
    to.uncore_frequency_bits = bits(uncore_freq_.as_hz());
    to.uncore_voltage_bits = bits(uncore_voltage_.as_volts());
    to.uncore_halted = uncore_halted_;
    to.system_active = system_active_hint_;
    to.package = with_uncore_power(cores_power, uncore_traffic);
    to.dram = power::dram_power(dram_bw);
    to.activity = av;
    to.package_state = cstates::resolve_package_state(core_states_, system_active_hint_);
    current_ = victim;
}

// One pass over the cores integrates the counters at the operating point
// that held since the last update; the energy inputs come from the memo.
void Socket::advance_to(Time now) {
    const Time dt = now - last_update_;
    if (dt <= Time::zero()) {
        last_update_ = now;
        return;
    }
    ++counters_.advances;
    refresh_operating_point();
    const OperatingPoint& op = points_[current_];
    const double seconds = dt.as_seconds();

    const double tsc_ticks = sku_->nominal_frequency.as_hz() * seconds;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        SimCore& c = cores_[i];
        if (c.state == cstates::CState::C3) c.c3_residency += tsc_ticks;
        if (c.state == cstates::CState::C6) c.c6_residency += tsc_ticks;
        if (c.state != cstates::CState::C0) continue;
        const double cycles = c.frequency.as_hz() * seconds;
        c.aperf += cycles;
        c.core_cycles += cycles;
        c.mperf += sku_->nominal_frequency.as_hz() * seconds;
        if (c.workload == nullptr) continue;
        const double throughput = op.terms[i].ipc * c.throughput_factor;
        c.instructions += throughput * cycles;
        c.stall_cycles += c.workload->stall_fraction * cycles;
    }

    // --- uncore clock counter ---
    if (!uncore_halted_) uncore_cycles_ += uncore_freq_.as_hz() * seconds;

    // --- package C-state residency ---
    if (op.package_state == cstates::PackageCState::PC3) pkg_c3_residency_ += tsc_ticks;
    if (op.package_state == cstates::PackageCState::PC6) pkg_c6_residency_ += tsc_ticks;

    // --- energy ---
    rapl_.integrate(op.package, op.dram, op.activity, dt);
    thermal_.advance(op.package, dt);

    last_update_ = now;
}
// hsw:end-hot-path

void Socket::assign_workload(std::size_t core, const workloads::Workload* w, unsigned threads) {
    SimCore& c = cores_[core];
    c.workload = w;
    c.threads = threads;
    c.state = cstates::CState::C0;
    for (OperatingPoint& p : points_) p.keys[core].valid = false;
    cdyn_.clear();
}

void Socket::stage_grants(const pcu::PcuOutputs& out) {
    assert(!grants_staged_ && "a socket holds at most one pending grant");
    staged_grants_ = out;
    grants_staged_ = true;
}

const pcu::PcuOutputs& Socket::apply_staged_grants() {
    assert(grants_staged_);
    grants_staged_ = false;
    apply_grants(staged_grants_);
    return staged_grants_;
}

void Socket::apply_grants(const pcu::PcuOutputs& out) {
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
    die_uncore_ = out.die_uncore_frequency;
}

Frequency Socket::fastest_active_core() const {
    Frequency best = Frequency::zero();
    for (const SimCore& c : cores_) {
        if (c.state == cstates::CState::C0) best = std::max(best, c.frequency);
    }
    return best;
}

bool Socket::any_core_active() const {
    return std::any_of(cores_.begin(), cores_.end(), [](const SimCore& c) {
        return c.state == cstates::CState::C0;
    });
}

unsigned Socket::active_core_count() const {
    return static_cast<unsigned>(
        std::count_if(cores_.begin(), cores_.end(), [](const SimCore& c) {
            return c.state == cstates::CState::C0;
        }));
}

Power Socket::core_power_term(const SimCore& c, double cdyn) const {
    const power::CoreActivity activity{
        .cdyn_utilization = cdyn,
        .clock_running = c.state == cstates::CState::C0,
        .power_gated = cstates::power_gated(c.state),
    };
    return power::core_power(activity, c.voltage, c.frequency);
}

Power Socket::with_uncore_power(Power cores, double traffic_sum) const {
    if (uncore_halted_) return cores;
    const double traffic = std::min(1.0, traffic_sum / static_cast<double>(cores_.size()));
    return cores + power::uncore_power(traffic, uncore_voltage_, uncore_freq_);
}

Power Socket::current_package_power(Time now) const {
    Power total = power::socket_static_power();
    double traffic = 0.0;
    for (const SimCore& c : cores_) {
        total += core_power_term(c, cdyn_.of(c, now));
        if (c.state == cstates::CState::C0 && c.workload != nullptr) {
            traffic += c.workload->uncore_traffic;
        }
    }
    return with_uncore_power(total, traffic);
}

double Socket::dram_demand_gbs(const SimCore& c) const {
    const double scale = c.frequency / sku_->nominal_frequency;
    const double ht = c.threads >= 2 ? 1.15 : 1.0;
    return c.workload->dram_gbs_per_core * scale * ht;
}

Bandwidth Socket::dram_traffic(double demand_gbs) const {
    return Bandwidth::gb_per_sec(std::min(demand_gbs, dram_peak_gbs_));
}

Bandwidth Socket::current_dram_traffic() const {
    double demand = 0.0;
    for (const SimCore& c : cores_) {
        if (c.state == cstates::CState::C0 && c.workload != nullptr) demand += dram_demand_gbs(c);
    }
    return dram_traffic(demand);
}

Power Socket::current_dram_power() const {
    return power::dram_power(current_dram_traffic());
}

Bandwidth Socket::achieved_l3_bandwidth() const {
    const Frequency f = fastest_active_core();
    if (f == Frequency::zero()) return Bandwidth::gb_per_sec(0.0);
    return bw_model_.l3_read(concurrency(), f, uncore_freq_);
}

Bandwidth Socket::achieved_dram_bandwidth() const {
    const Frequency f = fastest_active_core();
    if (f == Frequency::zero()) return Bandwidth::gb_per_sec(0.0);
    return bw_model_.dram_read(concurrency(), f, uncore_freq_);
}

mem::ConcurrencyConfig Socket::concurrency() const {
    mem::ConcurrencyConfig cfg{0, 1};
    for (const SimCore& c : cores_) {
        if (c.state != cstates::CState::C0 || c.workload == nullptr) continue;
        ++cfg.cores;
        cfg.threads_per_core = std::max(cfg.threads_per_core, c.threads);
    }
    cfg.cores = std::max(cfg.cores, 1u);
    return cfg;
}

}  // namespace hsw::core
