// Power control unit firmware model.
//
// Each socket's PCU evaluates its control loops on the 500 us opportunity
// grid (Section VI-A): it latches pending p-state requests, resolves turbo
// and AVX-license caps, runs energy-efficient turbo, decides the uncore
// clock (UFS), and enforces the package power limit by first throttling
// cores (holding the UFS floor) and then granting remaining headroom to the
// uncore -- the mechanism behind Table IV's "lower core frequency setting
// can increase performance" observation.
//
// Fractional TDP equilibria are realized by dithering between adjacent
// 100 MHz ratios across opportunity ticks, exactly like the real PCU's
// running-average limiter; time-averaged counters then show the
// non-multiple frequencies the paper reports (e.g. 2.31 GHz).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/sku.hpp"
#include "cstates/cstate.hpp"
#include "msr/msr_file.hpp"
#include "pcu/avx_license.hpp"
#include "pcu/policy.hpp"
#include "pcu/turbo.hpp"
#include "pcu/uncore_scaling.hpp"
#include "power/vf_curve.hpp"
#include "util/units.hpp"

namespace hsw::pcu {

using util::Frequency;
using util::Power;
using util::Time;
using util::Voltage;

struct CoreInputs {
    cstates::CState state = cstates::CState::C6;
    unsigned requested_ratio = 12;   // IA32_PERF_CTL target (nominal+1 = turbo)
    double avx_fraction = 0.0;       // of the running workload
    double avx512_fraction = 0.0;    // 512-bit density (license level 2 input)
    double stall_fraction = 0.0;
    double cdyn_utilization = 0.0;   // current dynamic activity
    /// Raw IA32_HWP_REQUEST for this core (0 = fall back to the package
    /// request, then to an autonomous default). Ignored unless HWP is on.
    std::uint64_t hwp_request_raw = 0;
};

struct PcuInputs {
    std::vector<CoreInputs> cores;
    msr::EpbPolicy epb = msr::EpbPolicy::Balanced;
    bool turbo_enabled = true;
    double uncore_traffic = 0.0;       // [0,1]
    double current_intensity = 0.0;    // worst over running workloads
    bool system_active = true;         // any C0 core anywhere (both sockets)
    Frequency fastest_system_core;     // for the passive-socket uncore rule
    /// Software package power cap from MSR_PKG_POWER_LIMIT (0 = use TDP).
    double power_limit_watts = 0.0;
    /// Raw MSR_UNCORE_RATIO_LIMIT value (0 = unconstrained).
    std::uint64_t uncore_ratio_limit_raw = 0;
    /// MSR_PM_ENABLE bit 0: requests are taken from hwp_request_raw instead
    /// of requested_ratio. Only honored by HWP-capable policies.
    bool hwp_enabled = false;
    /// Raw IA32_HWP_REQUEST_PKG fallback for cores with no own request.
    std::uint64_t hwp_request_pkg_raw = 0;
};

struct CoreGrant {
    Frequency frequency;
    Voltage voltage;
    bool avx_licensed = false;
    unsigned license_level = 0;      // 0 none, 1 AVX, 2 AVX-512
    double throughput_factor = 1.0;  // < 1 during the AVX voltage ramp
};

struct PcuOutputs {
    std::vector<CoreGrant> cores;
    Frequency uncore_frequency;
    Voltage uncore_voltage;
    bool uncore_clock_halted = false;
    bool tdp_limited = false;
    Power estimated_package_power;
    /// Per-die uncore grants (Skylake-SP sub-NUMA clusters); empty for
    /// policies with a package-wide uncore clock.
    std::vector<Frequency> die_uncore_frequency;
};

/// Work counters of one controller (plain members: a controller is driven
/// by the one thread that runs its node).
struct PcuCounters {
    std::uint64_t ticks = 0;          // opportunity-grid evaluations
    std::uint64_t search_reuses = 0;  // ticks that reused a memoized budget search
    std::uint64_t power_terms = 0;    // core power terms evaluated (memo misses)
};

class PcuController {
public:
    /// A null policy means the default Haswell policy (haswell_policy()).
    PcuController(const arch::Sku& sku, unsigned socket_id,
                  const PcuPolicy* policy = nullptr);

    /// Run one opportunity-grid evaluation. Deterministic given inputs and
    /// the controller's history. The result lives in a buffer the next call
    /// overwrites.
    [[nodiscard]] const PcuOutputs& evaluate(const PcuInputs& in, Time now);

    /// Model-estimated package power for a hypothetical operating point.
    /// Evaluates every term afresh: the reference the budget loop's
    /// memoized estimate must equal bit for bit.
    [[nodiscard]] Power estimate_package_power(const PcuInputs& in,
                                               const std::vector<unsigned>& core_ratios,
                                               Frequency uncore) const;

    [[nodiscard]] const arch::Sku& sku() const { return *sku_; }
    [[nodiscard]] unsigned socket_id() const { return socket_id_; }
    [[nodiscard]] const PcuCounters& counters() const { return counters_; }

    /// Effective power budget after the peak-current guardband: very
    /// current-intense code (LINPACK) is budgeted below TDP, which is why
    /// it shows both lower frequency and lower power in Table V.
    [[nodiscard]] Power effective_budget(double current_intensity) const;

private:
    /// Everything besides the caps and the per-core power keys that the
    /// budget search reads; compared bitwise.
    struct SearchKey {
        std::uint64_t budget_bits = 0;
        std::uint64_t fastest_system_core_bits = 0;
        std::uint64_t stall_bits = 0;
        std::uint64_t traffic_bits = 0;
        msr::EpbPolicy epb = msr::EpbPolicy::Balanced;
        bool turbo_requested = false;
        unsigned msr_max_ratio = 0;
        unsigned msr_min_ratio = 0;
        bool operator==(const SearchKey&) const = default;
    };

    /// The budget search's result for one set of inputs. Everything after
    /// the search that changes from tick to tick is the dither accumulators.
    struct SearchMemo {
        bool valid = false;
        SearchKey key;
        std::vector<unsigned> caps;
        std::vector<unsigned> lo;      // ratios at the budget (or the floors)
        std::vector<unsigned> hi;      // lo with the fastest cores one step up
        UfsDecision ufs_lo;
        UfsDecision ufs_hi;
        bool over_at_caps = false;     // the first over-budget check
        bool throttled = false;        // the descent moved below the caps
        bool dither = false;           // add `alpha` to the regime's accumulator
        double alpha = 0.0;
        Frequency uncore;              // headroom regime: highest feasible step
    };

    /// One core's power-term memo key.
    struct CoreKey {
        cstates::CState state = cstates::CState::C6;
        std::uint64_t cdyn_bits = 0;
        unsigned level = 0;
        bool operator==(const CoreKey&) const = default;
    };

    /// The pipeline shared by all generations; `in` already has HWP
    /// requests resolved into requested_ratio when HWP is live. Writes out_.
    void evaluate_impl(const PcuInputs& in, Time now);
    /// Descend from caps_ toward floors_ until the budget holds and prepare
    /// both dither endpoints; fills `s` for the current caps and key.
    void run_search(SearchMemo& s, const PcuInputs& in, Power budget, double max_stall,
                    bool turbo_requested, const UncoreRatioLimit& msr_limit);
    /// Re-key every core's power-term memo; a changed key drops that
    /// core's terms and every search memo.
    void refresh_core_keys(const PcuInputs& in);
    /// estimate_package_power over the memoized core terms (same terms,
    /// same summation order).
    [[nodiscard]] Power estimate(const PcuInputs& in, const std::vector<unsigned>& ratios,
                                 Frequency uncore);
    /// Core `core`'s power term at `ratio`, from the memo when known.
    [[nodiscard]] Power core_term(std::size_t core, unsigned ratio, const CoreInputs& c);
    [[nodiscard]] static Power fresh_core_term(const CoreInputs& c, Voltage voltage,
                                               unsigned ratio);
    /// Resolve IA32_HWP_REQUEST windows into per-core requested ratios and
    /// an effective bias tier (the minimum EPP over active cores wins).
    void apply_hwp(PcuInputs& in) const;
    /// Split the package uncore grant into per-die grants (idle die parks
    /// at the minimum; an active die never exceeds the package grant).
    void fill_die_uncore(const PcuInputs& in, PcuOutputs& out) const;
    /// Core voltage at `ratio` while holding license `level`, evaluated
    /// on the curve (any ratio; fills the V/f table).
    [[nodiscard]] Voltage vf_point(unsigned level, unsigned ratio) const;
    /// The same voltage from the V/f table; `ratio` must be below
    /// ratio_bound_, which every cap and floor is.
    [[nodiscard]] Voltage core_voltage(unsigned level, unsigned ratio) const;

    const arch::Sku* sku_;
    unsigned socket_id_;
    const PcuPolicy* policy_;
    power::VfCurve core_curve_;
    power::VfCurve uncore_curve_;
    std::vector<AvxLicenseLevels> licenses_;
    double core_dither_accum_ = 0.0;
    double uncore_dither_accum_ = 0.0;
    // EET polls the stall data only sporadically (1 ms per the patent,
    // Section II-E); decisions between polls use the stale snapshot, which
    // is what hurts workloads that change phase at unfavorable rates.
    Time last_eet_poll_ = Time::ns(-1'000'000'000);
    double eet_stall_snapshot_ = 0.0;

    // V/f table: vf_[level * ratio_bound_ + ratio], one row per license
    // level, covering every ratio a cap or floor can take.
    unsigned ratio_bound_ = 0;
    std::vector<Voltage> vf_;
    Voltage parked_voltage_;  // at sku.min_frequency, no license
    // Per-core power terms: terms_[core * ratio_bound_ + ratio], valid
    // where term_known_ is set; kept across ticks until the core's key moves.
    std::vector<CoreKey> core_keys_;
    std::vector<Power> terms_;
    std::vector<std::uint8_t> term_known_;
    // Budget searches kept for reuse. A TDP-limited node dithers each
    // socket between two operating points, so the system's fastest core (a
    // search input) cycles through a few values; one slot would miss on
    // every change.
    static constexpr std::size_t kSearchSlots = 4;
    std::array<SearchMemo, kSearchSlots> searches_;
    std::size_t next_search_slot_ = 0;
    // Per-tick buffers, sized once.
    PcuInputs hwp_in_;
    PcuOutputs out_;
    std::vector<unsigned> caps_;
    std::vector<unsigned> floors_;
    std::vector<unsigned> parked_;
    PcuCounters counters_;
};

}  // namespace hsw::pcu
