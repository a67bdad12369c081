#include "pcu/pcu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "arch/calibration.hpp"
#include "pcu/hwp.hpp"
#include "power/power_model.hpp"

namespace hsw::pcu {

namespace cal = hsw::arch::cal;

namespace {

constexpr double kUncoreStepMhz = 50.0;  // ladder granularity (1.75/1.65 GHz)

[[nodiscard]] Frequency step_up(Frequency f) { return Frequency::mhz(f.as_mhz() + kUncoreStepMhz); }

}  // namespace

PcuController::PcuController(const arch::Sku& sku, unsigned socket_id,
                             const PcuPolicy* policy)
    : sku_{&sku},
      socket_id_{socket_id},
      policy_{policy != nullptr ? policy : &haswell_policy()},
      core_curve_{power::VfCurve::core_curve(socket_id)},
      uncore_curve_{power::VfCurve::uncore_curve(socket_id)},
      licenses_(sku.cores),
      parked_voltage_{core_curve_.voltage_for(sku.min_frequency)},
      core_keys_(sku.cores),
      caps_(sku.cores),
      floors_(sku.cores),
      parked_(sku.cores, sku.min_frequency.ratio()) {
    // Every cap is a request clamped to nominal, a turbo bin or a license
    // base, and every floor is at most its cap, so these bound the ratios
    // the search can visit.
    unsigned max_ratio = std::max({sku.nominal_frequency.ratio(), sku.min_frequency.ratio(),
                                   sku.avx_base_frequency.ratio(),
                                   sku.avx512_base_frequency.ratio()});
    for (unsigned n = 1; n <= sku.cores; ++n) {
        max_ratio = std::max({max_ratio, sku.max_turbo(n).ratio(), sku.max_avx_turbo(n).ratio(),
                              sku.max_avx512_turbo(n).ratio()});
    }
    ratio_bound_ = max_ratio + 1;
    const unsigned levels = AvxLicenseLevels::kMaxLevel + 1;
    vf_.reserve(std::size_t{levels} * ratio_bound_);
    for (unsigned level = 0; level < levels; ++level) {
        for (unsigned r = 0; r < ratio_bound_; ++r) {
            vf_.push_back(vf_point(level, r));
        }
    }
    terms_.resize(std::size_t{sku.cores} * ratio_bound_);
    term_known_.resize(terms_.size(), 0);
    for (SearchMemo& m : searches_) {
        for (auto* v : {&m.caps, &m.lo, &m.hi}) v->resize(sku.cores);
    }
    hwp_in_.cores.resize(sku.cores);
    out_.cores.resize(sku.cores);
}

Voltage PcuController::vf_point(unsigned level, unsigned ratio) const {
    // Per-core variation is applied by the socket's noise layer.
    Voltage v = core_curve_.voltage_for(Frequency::from_ratio(ratio));
    if (level > 0) v = v + Voltage::volts(policy_->license_voltage_adder_volts(level));
    return v;
}

Voltage PcuController::core_voltage(unsigned level, unsigned ratio) const {
    assert(ratio < ratio_bound_);
    return vf_[std::size_t{level} * ratio_bound_ + ratio];
}

Power PcuController::effective_budget(double current_intensity) const {
    const double shave = std::max(0.0, current_intensity - cal::kGuardbandCurrentThreshold) *
                         cal::kGuardbandWattsPerUnit;
    return Power::watts(sku_->tdp.as_watts() - shave);
}

Power PcuController::fresh_core_term(const CoreInputs& c, Voltage voltage,
                                     unsigned ratio) {
    const power::CoreActivity activity{
        .cdyn_utilization = c.cdyn_utilization,
        .clock_running = c.state == cstates::CState::C0,
        .power_gated = cstates::power_gated(c.state),
    };
    return power::core_power(activity, voltage, Frequency::from_ratio(ratio));
}

Power PcuController::estimate_package_power(const PcuInputs& in,
                                            const std::vector<unsigned>& core_ratios,
                                            Frequency uncore) const {
    assert(core_ratios.size() == in.cores.size());
    Power total = power::socket_static_power();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        total += fresh_core_term(in.cores[i], vf_point(licenses_[i].level(), core_ratios[i]),
                                 core_ratios[i]);
    }
    total += power::uncore_power(in.uncore_traffic, uncore_curve_.voltage_for(uncore), uncore);
    return total;
}

const PcuOutputs& PcuController::evaluate(const PcuInputs& in, Time now) {
    if (in.hwp_enabled && policy_->hwp_capable()) {
        hwp_in_ = in;
        apply_hwp(hwp_in_);
        evaluate_impl(hwp_in_, now);
    } else {
        evaluate_impl(in, now);
    }
    if (policy_->per_die_uncore()) fill_die_uncore(in, out_);
    return out_;
}

void PcuController::apply_hwp(PcuInputs& in) const {
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

void PcuController::fill_die_uncore(const PcuInputs& in, PcuOutputs& out) const {
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

// hsw:hot-path -- every socket evaluates once per ~500 us opportunity tick
// for the whole survey; the tick works in member buffers and memos sized at
// construction and never touches the allocator.
void PcuController::refresh_core_keys(const PcuInputs& in) {
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const CoreKey key{in.cores[i].state,
                          std::bit_cast<std::uint64_t>(in.cores[i].cdyn_utilization),
                          licenses_[i].level()};
        if (key == core_keys_[i]) continue;
        core_keys_[i] = key;
        const auto row = term_known_.begin() + static_cast<std::ptrdiff_t>(i * ratio_bound_);
        std::fill(row, row + ratio_bound_, std::uint8_t{0});
        for (SearchMemo& m : searches_) m.valid = false;
    }
}

Power PcuController::core_term(std::size_t core, unsigned ratio, const CoreInputs& c) {
    assert(ratio < ratio_bound_);
    const std::size_t slot = core * ratio_bound_ + ratio;
    if (term_known_[slot] == 0) {
        ++counters_.power_terms;
        terms_[slot] = fresh_core_term(c, core_voltage(licenses_[core].level(), ratio), ratio);
        term_known_[slot] = 1;
    }
    return terms_[slot];
}

Power PcuController::estimate(const PcuInputs& in, const std::vector<unsigned>& ratios,
                              Frequency uncore) {
    Power total = power::socket_static_power();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        total += core_term(i, ratios[i], in.cores[i]);
    }
    total += power::uncore_power(in.uncore_traffic, uncore_curve_.voltage_for(uncore), uncore);
    return total;
}

void PcuController::run_search(SearchMemo& s, const PcuInputs& in, Power budget,
                               double max_stall, bool turbo_requested,
                               const UncoreRatioLimit& msr_limit) {
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
    std::vector<unsigned>& ratios = s.lo;
    ratios = caps_;
    s.ufs_lo = ufs_decision(ratios);
    s.throttled = false;
    s.over_at_caps = estimate(in, ratios, s.ufs_lo.floor) > budget;
    bool over = s.over_at_caps;
    while (over) {
        const unsigned fastest = fastest_ratio(ratios);
        bool reduced = false;
        for (std::size_t i = 0; i < ratios.size(); ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            if (ratios[i] == fastest && ratios[i] > floors_[i]) {
                --ratios[i];
                reduced = true;
            }
        }
        if (!reduced) break;  // at guaranteed floors; budget may be exceeded
        s.throttled = true;
        s.ufs_lo = ufs_decision(ratios);
        over = estimate(in, ratios, s.ufs_lo.floor) > budget;
    }

    s.dither = false;
    s.alpha = 0.0;
    if (s.throttled) {
        // --- TDP-limited regime: the operating point dithers between
        // (core lo, uncore = tracking floor) and (core hi, its floor),
        // weighted so the *average* power equals the budget. This is what
        // yields the paper's fractional frequencies (core 2.30-2.35 with
        // uncore ~= core in Table IV's turbo/2.5/2.4 rows). The uncore is
        // NOT additionally raised here -- the freed budget goes to the
        // cores first. ---
        s.hi = ratios;
        const unsigned fastest = fastest_ratio(ratios);
        for (std::size_t i = 0; i < s.hi.size(); ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            if (s.hi[i] == fastest && s.hi[i] < caps_[i]) {
                ++s.hi[i];
                s.dither = true;
            }
        }
        if (s.dither) {
            s.ufs_hi = ufs_decision(s.hi);
            const double p_lo = estimate(in, ratios, s.ufs_lo.floor).as_watts();
            const double p_hi = estimate(in, s.hi, s.ufs_hi.floor).as_watts();
            if (p_hi > p_lo) {
                s.alpha = std::clamp((budget.as_watts() - p_lo) / (p_hi - p_lo), 0.0, 1.0);
            }
        }
    } else {
        // --- Headroom regime: the cores hold their requested clocks; the
        // remaining budget is granted to the uncore, from the UFS floor
        // toward its target, in 50 MHz steps (Table III/IV behaviour). ---
        Frequency uncore = std::min(s.ufs_lo.floor, sku_->uncore_max);
        while (step_up(uncore) <= s.ufs_lo.target &&
               !(estimate(in, ratios, step_up(uncore)) > budget)) {
            uncore = step_up(uncore);
        }
        s.uncore = uncore;
        // Uncore dither between the feasible step and the next one.
        if (step_up(uncore) <= s.ufs_lo.target) {
            const double p_lo = estimate(in, ratios, uncore).as_watts();
            const double p_hi = estimate(in, ratios, step_up(uncore)).as_watts();
            if (p_hi > p_lo) {
                s.alpha = std::clamp((budget.as_watts() - p_lo) / (p_hi - p_lo), 0.0, 1.0);
                s.dither = true;
            }
        }
    }
    s.caps = caps_;
    s.valid = true;
}

void PcuController::evaluate_impl(const PcuInputs& in, Time now) {
    assert(in.cores.size() == sku_->cores);
    ++counters_.ticks;
    PcuOutputs& out = out_;

    // --- AVX license state machines ---
    const bool avx512_capable = policy_->max_license_level() >= 2;
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const bool running = in.cores[i].state == cstates::CState::C0;
        licenses_[i].update(running ? in.cores[i].avx_fraction : 0.0,
                            running && avx512_capable ? in.cores[i].avx512_fraction : 0.0,
                            now);
    }
    refresh_core_keys(in);

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
            uncore = (counters_.ticks % 2 == 0)
                         ? sku_->uncore_max
                         : Frequency::mhz(sku_->uncore_max.as_mhz() - 100.0);
            if (msr_limit.max_ratio != 0) {
                uncore = std::min(uncore, Frequency::from_ratio(msr_limit.max_ratio));
            }
        }
        for (std::size_t i = 0; i < in.cores.size(); ++i) {
            out.cores[i] = CoreGrant{sku_->min_frequency, parked_voltage_,
                                     licenses_[i].licensed(), licenses_[i].level(), 1.0};
        }
        out.uncore_frequency = uncore;
        out.uncore_voltage = uncore_curve_.voltage_for(uncore);
        out.uncore_clock_halted = d.clock_halted;
        out.tdp_limited = false;
        out.estimated_package_power = estimate(in, parked_, uncore);
        return;
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
    const unsigned avx_base_ratio = sku_->avx_base_frequency.ratio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const auto& c = in.cores[i];
        if (c.state != cstates::CState::C0) {
            // Parked cores keep their requested ratio so they resume it on
            // wake-up (the C-state probes vary this frequency).
            caps_[i] = floors_[i] =
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
        caps_[i] = cap.ratio();
        // Guaranteed floor: everything above the license base frequency is
        // opportunistic (Section II-F); requests at or below it are honored.
        const unsigned base_ratio = licenses_[i].level() >= 2
                                        ? sku_->avx512_base_frequency.ratio()
                                        : avx_base_ratio;
        floors_[i] = std::min(caps_[i], base_ratio);
    }

    Power budget = effective_budget(in.current_intensity);
    if (in.power_limit_watts > 0.0) {
        budget = std::min(budget, Power::watts(in.power_limit_watts));
    }

    // --- Budget search, or a memo of it: the search is a pure function of
    // the caps, the per-core power keys (checked by refresh_core_keys) and
    // this key -- the floors follow from the caps, states and license
    // levels -- so equal inputs give an earlier tick's result bit for bit. ---
    const SearchKey key{
        .budget_bits = std::bit_cast<std::uint64_t>(budget.as_watts()),
        .fastest_system_core_bits = std::bit_cast<std::uint64_t>(in.fastest_system_core.as_hz()),
        .stall_bits = std::bit_cast<std::uint64_t>(max_stall),
        .traffic_bits = std::bit_cast<std::uint64_t>(in.uncore_traffic),
        .epb = in.epb,
        .turbo_requested = turbo_requested,
        .msr_max_ratio = msr_limit.max_ratio,
        .msr_min_ratio = msr_limit.min_ratio,
    };
    const SearchMemo* memo = nullptr;
    for (const SearchMemo& m : searches_) {
        if (m.valid && m.key == key && m.caps == caps_) {
            memo = &m;
            break;
        }
    }
    if (memo != nullptr) {
        ++counters_.search_reuses;
    } else {
        SearchMemo& slot = searches_[next_search_slot_];
        next_search_slot_ = (next_search_slot_ + 1) % kSearchSlots;
        slot.key = key;
        run_search(slot, in, budget, max_stall, turbo_requested, msr_limit);
        memo = &slot;
    }
    const SearchMemo& s = *memo;

    // The first over-budget check covers every throttled search too (the
    // descent only starts over budget).
    out.tdp_limited = s.over_at_caps;

    // --- Dither between the search's two endpoints ---
    const std::vector<unsigned>* ratios = &s.lo;
    Frequency uncore;
    if (s.throttled) {
        Frequency floor = s.ufs_lo.floor;
        if (s.dither) {
            core_dither_accum_ += s.alpha;
            if (core_dither_accum_ >= 1.0) {
                core_dither_accum_ -= 1.0;
                ratios = &s.hi;
                floor = s.ufs_hi.floor;
            }
        }
        uncore = std::min(floor, sku_->uncore_max);
    } else {
        uncore = s.uncore;
        if (s.dither) {
            uncore_dither_accum_ += s.alpha;
            if (uncore_dither_accum_ >= 1.0) {
                uncore_dither_accum_ -= 1.0;
                uncore = step_up(uncore);
            }
        }
    }

    // --- Assemble grants ---
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const unsigned ratio = (*ratios)[i];
        const unsigned level = licenses_[i].level();
        out.cores[i] = CoreGrant{
            Frequency::from_ratio(ratio),
            core_voltage(level, ratio),
            licenses_[i].licensed(),
            level,
            licenses_[i].throughput_factor(now),
        };
    }
    out.uncore_frequency = uncore;
    out.uncore_voltage = uncore_curve_.voltage_for(uncore);
    out.uncore_clock_halted = false;
    out.estimated_package_power = estimate(in, *ratios, uncore);
}
// hsw:end-hot-path

}  // namespace hsw::pcu
