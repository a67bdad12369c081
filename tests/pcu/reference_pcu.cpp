// Reference copy of the plain PcuController pipeline; see reference_pcu.hpp.
#include "reference_pcu.hpp"

#include <algorithm>
#include <cassert>

#include "arch/calibration.hpp"
#include "pcu/hwp.hpp"
#include "power/power_model.hpp"

namespace hsw::pcu::reference {

namespace cal = hsw::arch::cal;

namespace {

constexpr double kUncoreStepMhz = 50.0;  // ladder granularity (1.75/1.65 GHz)

[[nodiscard]] Frequency step_up(Frequency f) { return Frequency::mhz(f.as_mhz() + kUncoreStepMhz); }

}  // namespace

ReferencePcu::ReferencePcu(const arch::Sku& sku, unsigned socket_id,
                           const PcuPolicy* policy)
    : sku_{&sku},
      socket_id_{socket_id},
      policy_{policy != nullptr ? policy : &haswell_policy()},
      core_curve_{power::VfCurve::core_curve(socket_id)},
      uncore_curve_{power::VfCurve::uncore_curve(socket_id)},
      licenses_(sku.cores) {}

Voltage ReferencePcu::core_voltage(unsigned core, Frequency f, unsigned level) const {
    Voltage v = core_curve_.voltage_for(f);
    if (level > 0) {
        v = v + Voltage::volts(policy_->license_voltage_adder_volts(level));
    }
    (void)core;  // per-core variation is applied by the socket's noise layer
    return v;
}

Power ReferencePcu::effective_budget(double current_intensity) const {
    const double shave = std::max(0.0, current_intensity - cal::kGuardbandCurrentThreshold) *
                         cal::kGuardbandWattsPerUnit;
    return Power::watts(sku_->tdp.as_watts() - shave);
}

Power ReferencePcu::estimate_package_power(const PcuInputs& in,
                                           const std::vector<unsigned>& core_ratios,
                                           Frequency uncore) const {
    assert(core_ratios.size() == in.cores.size());
    Power total = power::socket_static_power();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const auto& c = in.cores[i];
        const Frequency f = Frequency::from_ratio(core_ratios[i]);
        const unsigned level = licenses_[i].level();
        const power::CoreActivity activity{
            .cdyn_utilization = c.cdyn_utilization,
            .clock_running = c.state == cstates::CState::C0,
            .power_gated = cstates::power_gated(c.state),
        };
        total += power::core_power(activity, core_voltage(static_cast<unsigned>(i), f, level), f);
    }
    total += power::uncore_power(in.uncore_traffic, uncore_curve_.voltage_for(uncore), uncore);
    return total;
}

PcuOutputs ReferencePcu::evaluate(const PcuInputs& in, Time now) {
    PcuOutputs out;
    if (in.hwp_enabled && policy_->hwp_capable()) {
        PcuInputs adjusted = in;
        apply_hwp(adjusted);
        out = evaluate_impl(adjusted, now);
    } else {
        out = evaluate_impl(in, now);
    }
    if (policy_->per_die_uncore()) fill_die_uncore(in, out);
    return out;
}

void ReferencePcu::apply_hwp(PcuInputs& in) const {
    const HwpCapabilities caps = capabilities_for(*sku_);
    unsigned min_epp = 255;
    bool any_active = false;
    for (auto& c : in.cores) {
        const std::uint64_t raw =
            c.hwp_request_raw != 0 ? c.hwp_request_raw : in.hwp_request_pkg_raw;
        // Raw zero means "nobody programmed a request": run autonomously
        // with the default (balanced) EPP rather than decoding epp = 0.
        const HwpRequest req = raw != 0 ? decode_hwp_request(raw) : HwpRequest{};
        c.requested_ratio = resolve_hwp_ratio(caps, req);
        if (c.state == cstates::CState::C0) {
            min_epp = std::min(min_epp, req.epp);
            any_active = true;
        }
    }
    // The most performance-hungry active core sets the package bias tier.
    if (any_active) in.epb = epp_to_epb(min_epp);
}

void ReferencePcu::fill_die_uncore(const PcuInputs& in, PcuOutputs& out) const {
    // Two sub-NUMA clusters: low core IDs on die 0, high on die 1. A die
    // with no running core parks its uncore at the minimum; an active die
    // follows its own fastest core but never exceeds the package grant.
    const std::size_t half = (in.cores.size() + 1) / 2;
    out.die_uncore_frequency.assign(2, sku_->uncore_min);
    if (out.uncore_clock_halted) return;
    for (std::size_t die = 0; die < 2; ++die) {
        const std::size_t begin = die == 0 ? 0 : half;
        const std::size_t end = die == 0 ? half : in.cores.size();
        Frequency fastest = Frequency::zero();
        for (std::size_t i = begin; i < end && i < out.cores.size(); ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            fastest = std::max(fastest, out.cores[i].frequency);
        }
        if (fastest > Frequency::zero()) {
            out.die_uncore_frequency[die] =
                std::min(out.uncore_frequency, std::max(sku_->uncore_min, fastest));
        }
    }
}

PcuOutputs ReferencePcu::evaluate_impl(const PcuInputs& in, Time now) {
    assert(in.cores.size() == sku_->cores);
    ++tick_count_;

    // --- AVX license state machines ---
    const bool avx512_capable = policy_->max_license_level() >= 2;
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const bool running = in.cores[i].state == cstates::CState::C0;
        licenses_[i].update(running ? in.cores[i].avx_fraction : 0.0,
                            running && avx512_capable ? in.cores[i].avx512_fraction : 0.0,
                            now);
    }

    unsigned n_active = 0;
    double max_stall = 0.0;
    bool turbo_requested = false;
    const unsigned nominal_ratio = sku_->nominal_frequency.ratio();
    for (const auto& c : in.cores) {
        if (c.state != cstates::CState::C0) continue;
        ++n_active;
        max_stall = std::max(max_stall, c.stall_fraction);
        if (c.requested_ratio > nominal_ratio) turbo_requested = true;
    }
    if (in.epb == msr::EpbPolicy::Performance && n_active > 0) turbo_requested = true;

    PcuOutputs out;
    out.cores.resize(in.cores.size());

    const UncoreRatioLimit msr_limit =
        decode_uncore_ratio_limit(in.uncore_ratio_limit_raw);

    // --- Passive socket / fully idle system ---
    if (n_active == 0) {
        UfsInputs ufs{
            .sku = sku_,
            .epb = in.epb,
            .fastest_local_core = Frequency::zero(),
            .fastest_system_core = in.fastest_system_core,
            .stall_fraction = 0.0,
            .socket_active = false,
            .system_active = in.system_active,
            .turbo_requested = in.system_active &&
                               in.fastest_system_core > sku_->nominal_frequency,
            .msr_max_ratio = msr_limit.max_ratio,
            .msr_min_ratio = msr_limit.min_ratio,
        };
        UfsDecision d = policy_->uncore(ufs);
        Frequency uncore = d.target;
        if (!d.clock_halted && ufs.turbo_requested) {
            // Table III: the passive uncore fluctuates between 2.9 and
            // 3.0 GHz when the active socket runs turbo frequencies.
            uncore = (tick_count_ % 2 == 0)
                         ? sku_->uncore_max
                         : Frequency::mhz(sku_->uncore_max.as_mhz() - 100.0);
            if (msr_limit.max_ratio != 0) {
                uncore = std::min(uncore, Frequency::from_ratio(msr_limit.max_ratio));
            }
        }
        std::vector<unsigned> parked(in.cores.size(), sku_->min_frequency.ratio());
        for (std::size_t i = 0; i < in.cores.size(); ++i) {
            const Frequency f = sku_->min_frequency;
            out.cores[i] = CoreGrant{f, core_voltage(static_cast<unsigned>(i), f, 0),
                                     licenses_[i].licensed(), licenses_[i].level(), 1.0};
        }
        out.uncore_frequency = uncore;
        out.uncore_voltage = uncore_curve_.voltage_for(uncore);
        out.uncore_clock_halted = d.clock_halted;
        out.estimated_package_power = estimate_package_power(in, parked, uncore);
        return out;
    }

    // --- EET's sporadic stall polling (Section II-E): refresh the stall
    // snapshot at most once per kEetPollPeriod; turbo demotion decisions in
    // between use the stale value. ---
    if (now - last_eet_poll_ >= cal::kEetPollPeriod) {
        last_eet_poll_ = now;
        eet_stall_snapshot_ = max_stall;
    }

    // --- Per-core frequency caps ---
    const TurboContext ctx{sku_, n_active, in.turbo_enabled, in.epb};
    std::vector<unsigned> caps(in.cores.size());
    std::vector<unsigned> floors(in.cores.size());
    const unsigned avx_base_ratio = sku_->avx_base_frequency.ratio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const auto& c = in.cores[i];
        if (c.state != cstates::CState::C0) {
            // Parked cores keep their requested ratio so they resume it on
            // wake-up (the C-state probes vary this frequency).
            caps[i] = floors[i] =
                std::clamp(c.requested_ratio, sku_->min_frequency.ratio(), nominal_ratio);
            continue;
        }
        Frequency cap = resolve_cap(ctx, Frequency::from_ratio(c.requested_ratio),
                                    licenses_[i].licensed());
        // The AVX-512 license caps harder than the 256-bit one (Skylake-SP:
        // 2.7 GHz nominal drops to 1.9 GHz all-core at license 2).
        if (licenses_[i].level() >= 2) {
            cap = std::min(cap, sku_->max_avx512_turbo(n_active));
        }
        cap = eet_demote(ctx, cap, eet_stall_snapshot_);
        caps[i] = cap.ratio();
        // Guaranteed floor: everything above the license base frequency is
        // opportunistic (Section II-F); requests at or below it are honored.
        const unsigned base_ratio = licenses_[i].level() >= 2
                                        ? sku_->avx512_base_frequency.ratio()
                                        : avx_base_ratio;
        floors[i] = std::min(caps[i], base_ratio);
    }

    Power budget = effective_budget(in.current_intensity);
    if (in.power_limit_watts > 0.0) {
        budget = std::min(budget, Power::watts(in.power_limit_watts));
    }

    auto fastest_ratio = [&](const std::vector<unsigned>& ratios) {
        unsigned best = sku_->min_frequency.ratio();
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            if (in.cores[i].state == cstates::CState::C0) best = std::max(best, ratios[i]);
        }
        return best;
    };

    auto ufs_decision = [&](const std::vector<unsigned>& ratios) {
        const UfsInputs ufs{
            .sku = sku_,
            .epb = in.epb,
            .fastest_local_core = Frequency::from_ratio(fastest_ratio(ratios)),
            .fastest_system_core = in.fastest_system_core,
            .stall_fraction = max_stall,
            .socket_active = true,
            .system_active = true,
            .turbo_requested = turbo_requested,
            .msr_max_ratio = msr_limit.max_ratio,
            .msr_min_ratio = msr_limit.min_ratio,
        };
        return policy_->uncore(ufs);
    };

    // --- Core throttle loop: shed 100 MHz from the fastest cores while the
    // operating point (cores at ratios, uncore at its floor) overruns the
    // budget. The UFS floor moves down with the cores in tracking mode. ---
    std::vector<unsigned> ratios = caps;
    UfsDecision ufs = ufs_decision(ratios);
    bool throttled = false;
    auto over_budget = [&](const std::vector<unsigned>& r, Frequency unc) {
        return estimate_package_power(in, r, unc) > budget;
    };
    while (over_budget(ratios, ufs.floor)) {
        const unsigned fastest = fastest_ratio(ratios);
        bool reduced = false;
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            if (ratios[i] == fastest && ratios[i] > floors[i]) {
                --ratios[i];
                reduced = true;
            }
        }
        if (!reduced) break;  // at guaranteed floors; budget may be exceeded
        throttled = true;
        ufs = ufs_decision(ratios);
    }
    out.tdp_limited = throttled || over_budget(caps, ufs_decision(caps).floor);

    Frequency uncore = std::min(ufs.floor, sku_->uncore_max);

    if (throttled) {
        // --- TDP-limited regime: the operating point dithers between
        // (core lo, uncore = tracking floor) and (core hi, its floor),
        // weighted so the *average* power equals the budget. This is what
        // yields the paper's fractional frequencies (core 2.30-2.35 with
        // uncore ~= core in Table IV's turbo/2.5/2.4 rows). The uncore is
        // NOT additionally raised here -- the freed budget goes to the
        // cores first. ---
        std::vector<unsigned> hi = ratios;
        bool can_step = false;
        const unsigned fastest = fastest_ratio(ratios);
        for (std::size_t i = 0; i < hi.size(); ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            if (hi[i] == fastest && hi[i] < caps[i]) {
                ++hi[i];
                can_step = true;
            }
        }
        if (can_step) {
            const UfsDecision ufs_hi = ufs_decision(hi);
            const double p_lo =
                estimate_package_power(in, ratios, ufs.floor).as_watts();
            const double p_hi =
                estimate_package_power(in, hi, ufs_hi.floor).as_watts();
            double alpha = 0.0;
            if (p_hi > p_lo) {
                alpha = std::clamp((budget.as_watts() - p_lo) / (p_hi - p_lo), 0.0, 1.0);
            }
            core_dither_accum_ += alpha;
            if (core_dither_accum_ >= 1.0) {
                core_dither_accum_ -= 1.0;
                ratios = hi;
                ufs = ufs_hi;
            }
        }
        uncore = std::min(ufs.floor, sku_->uncore_max);
    } else {
        // --- Headroom regime: the cores hold their requested clocks; the
        // remaining budget is granted to the uncore, from the UFS floor
        // toward its target, in 50 MHz steps (Table III/IV behaviour). ---
        while (step_up(uncore) <= ufs.target && !over_budget(ratios, step_up(uncore))) {
            uncore = step_up(uncore);
        }
        // Uncore dither between the feasible step and the next one.
        if (step_up(uncore) <= ufs.target) {
            const double p_lo = estimate_package_power(in, ratios, uncore).as_watts();
            const double p_hi =
                estimate_package_power(in, ratios, step_up(uncore)).as_watts();
            if (p_hi > p_lo) {
                const double alpha =
                    std::clamp((budget.as_watts() - p_lo) / (p_hi - p_lo), 0.0, 1.0);
                uncore_dither_accum_ += alpha;
                if (uncore_dither_accum_ >= 1.0) {
                    uncore_dither_accum_ -= 1.0;
                    uncore = step_up(uncore);
                }
            }
        }
    }

    // --- Assemble grants ---
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const Frequency f = Frequency::from_ratio(ratios[i]);
        const unsigned level = licenses_[i].level();
        out.cores[i] = CoreGrant{
            f,
            core_voltage(static_cast<unsigned>(i), f, level),
            licenses_[i].licensed(),
            level,
            licenses_[i].throughput_factor(now),
        };
    }
    out.uncore_frequency = uncore;
    out.uncore_voltage = uncore_curve_.voltage_for(uncore);
    out.uncore_clock_halted = false;
    out.estimated_package_power = estimate_package_power(in, ratios, uncore);
    return out;
}

}  // namespace hsw::pcu::reference
