// One simulated processor package: cores, uncore, PCU, RAPL, thermal.
//
// Between events all state is constant, so the socket integrates counters
// and energy in closed form in advance_to(). The PCU evaluates on the
// 500 us opportunity grid; grants take effect after the FIVR/PLL switching
// time, which is what the FTaLaT-style tools measure. Clocks move only on
// that grid, so the socket memoizes its operating point (per-core power,
// IPC and DRAM terms, and their socket-wide sums) and re-evaluates only
// what a changed key touches.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/sku.hpp"
#include "arch/topology.hpp"
#include "cstates/cstate.hpp"
#include "mem/bandwidth_model.hpp"
#include "pcu/pcu.hpp"
#include "power/thermal.hpp"
#include "rapl/model.hpp"
#include "rapl/rapl.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads/workload.hpp"

namespace hsw::core {

using util::Bandwidth;
using util::Frequency;
using util::Power;
using util::Time;
using util::Voltage;

class Node;

/// One physical core (up to two hardware threads run the same workload).
struct SimCore {
    cstates::CState state = cstates::CState::C6;
    const workloads::Workload* workload = nullptr;  // null while parked
    unsigned threads = 1;                           // 1 or 2 (HT)
    unsigned requested_ratio = 0;                   // IA32_PERF_CTL target

    // Current grant.
    Frequency frequency;
    Voltage voltage;
    bool avx_licensed = false;
    unsigned license_level = 0;  // 0 none, 1 AVX, 2 AVX-512
    double throughput_factor = 1.0;

    /// Raw IA32_HWP_REQUEST for this core (0 = package fallback). Only
    /// consulted while HWP is enabled on an HWP-capable backend.
    std::uint64_t hwp_request_raw = 0;

    // Free-running counters (doubles; converted to u64 at the MSR edge).
    double aperf = 0.0;
    double mperf = 0.0;
    double instructions = 0.0;
    double core_cycles = 0.0;
    double stall_cycles = 0.0;
    // C-state residency in TSC-rate ticks (MSR_CORE_C3/C6_RESIDENCY).
    double c3_residency = 0.0;
    double c6_residency = 0.0;
    // Per-core silicon variation: relative voltage factor (Section III).
    double vf_factor = 1.0;
};

/// Work counters of one socket's time integration (plain members: a
/// socket is driven by the one thread that runs its node).
struct SocketCounters {
    std::uint64_t advances = 0;               // advance_to() calls that integrated (dt > 0)
    std::uint64_t operating_point_reuses = 0; // advances that reused the memoized aggregate
    std::uint64_t core_terms = 0;             // per-core terms evaluated (memo misses)
};

class Socket {
public:
    Socket(const arch::Sku& sku, unsigned socket_id, bool turbo_enabled,
           rapl::DramMode dram_mode, std::uint64_t seed);

    // --- time integration ---
    /// Integrate counters/energy from the last update to `now` assuming the
    /// current operating point, then remember `now`.
    void advance_to(Time now);

    /// Run `w` (null: no thread) on core `core` with `threads` hardware
    /// threads and put the core in C0. Always drops the core's memoized
    /// term, so a workload rebuilt in place at the same address is seen
    /// afresh; a workload's fields must not change while cores run it
    /// unless it is assigned again.
    void assign_workload(std::size_t core, const workloads::Workload* w, unsigned threads);

    /// One PCU opportunity-grid evaluation. Returns the grants to apply
    /// after the switching delay, or null when nothing changes. The grants
    /// live in the PCU's output buffer until its next evaluation.
    [[nodiscard]] const pcu::PcuOutputs* pcu_tick(Time now, bool system_active,
                                                  Frequency fastest_system_core);

    /// Apply grants now.
    void apply_grants(const pcu::PcuOutputs& out);

    /// Hold grants until apply_staged_grants() (tick + switching time).
    /// One grant per socket can be pending: the switching time is far
    /// shorter than the opportunity grid's period.
    void stage_grants(const pcu::PcuOutputs& out);
    /// Apply the staged grants; returns them.
    const pcu::PcuOutputs& apply_staged_grants();

    // --- state access ---
    [[nodiscard]] unsigned id() const { return id_; }
    [[nodiscard]] const arch::Sku& sku() const { return *sku_; }
    [[nodiscard]] std::vector<SimCore>& cores() { return cores_; }
    [[nodiscard]] const std::vector<SimCore>& cores() const { return cores_; }
    [[nodiscard]] Frequency uncore_frequency() const { return uncore_freq_; }
    [[nodiscard]] bool uncore_halted() const { return uncore_halted_; }
    [[nodiscard]] double uncore_cycles() const { return uncore_cycles_; }
    [[nodiscard]] double pkg_c3_residency() const { return pkg_c3_residency_; }
    [[nodiscard]] double pkg_c6_residency() const { return pkg_c6_residency_; }
    /// Whether the whole system was active at the last update (package
    /// C-state bookkeeping input; set by the node).
    void set_system_active_hint(bool active) { system_active_hint_ = active; }
    [[nodiscard]] rapl::RaplPackage& rapl() { return rapl_; }
    [[nodiscard]] const rapl::RaplPackage& rapl() const { return rapl_; }
    [[nodiscard]] pcu::PcuController& pcu() { return pcu_; }
    [[nodiscard]] const mem::BandwidthModel& bandwidth_model() const { return bw_model_; }
    [[nodiscard]] const arch::DieTopology& topology() const { return topo_; }
    [[nodiscard]] const power::ThermalModel& thermal() const { return thermal_; }
    [[nodiscard]] const SocketCounters& counters() const { return counters_; }

    void set_epb(msr::EpbPolicy p) { epb_ = p; }
    [[nodiscard]] msr::EpbPolicy epb() const { return epb_; }
    void set_turbo_enabled(bool on) { turbo_enabled_ = on; }
    [[nodiscard]] bool turbo_enabled() const { return turbo_enabled_; }

    /// Raw MSR_UNCORE_RATIO_LIMIT value (consumed by the UFS policy).
    void set_uncore_ratio_limit(std::uint64_t raw) { uncore_ratio_limit_raw_ = raw; }
    [[nodiscard]] std::uint64_t uncore_ratio_limit() const { return uncore_ratio_limit_raw_; }

    // --- HWP (Skylake-SP+; ignored by non-HWP backends) ---
    void set_hwp_enabled(bool on) { hwp_enabled_ = on; }
    [[nodiscard]] bool hwp_enabled() const { return hwp_enabled_; }
    void set_hwp_request_pkg(std::uint64_t raw) { hwp_request_pkg_raw_ = raw; }
    [[nodiscard]] std::uint64_t hwp_request_pkg() const { return hwp_request_pkg_raw_; }

    /// Per-die uncore grants (empty unless the backend models them).
    [[nodiscard]] const std::vector<Frequency>& die_uncore_frequencies() const {
        return die_uncore_;
    }

    /// Highest granted clock among C0 cores (zero if none).
    [[nodiscard]] Frequency fastest_active_core() const;
    [[nodiscard]] bool any_core_active() const;
    [[nodiscard]] unsigned active_core_count() const;

    /// Instantaneous package / DRAM power at the current operating point.
    [[nodiscard]] Power current_package_power(Time now) const;
    [[nodiscard]] Power current_dram_power() const;

    /// Aggregate DRAM traffic implied by the running workloads.
    [[nodiscard]] Bandwidth current_dram_traffic() const;

    /// Achieved read bandwidths at the current operating point (what the
    /// membench tool observes).
    [[nodiscard]] Bandwidth achieved_l3_bandwidth() const;
    [[nodiscard]] Bandwidth achieved_dram_bandwidth() const;

private:
    /// What a core's terms depend on, compared bitwise. Assigning a
    /// workload clears `valid` in every remembered operating point, so no
    /// key matches across an assignment.
    struct CoreKey {
        bool valid = false;
        cstates::CState state = cstates::CState::C6;
        const workloads::Workload* workload = nullptr;
        unsigned threads = 0;
        std::uint64_t frequency_bits = 0;
        std::uint64_t voltage_bits = 0;
        std::uint64_t cdyn_bits = 0;
        bool operator==(const CoreKey&) const = default;
    };
    /// A core's power term, and its IPC and DRAM demand if it runs a
    /// workload in C0.
    struct CoreTerm {
        Power power;
        double ipc = 0.0;
        double dram_gbs = 0.0;
    };
    /// One remembered operating point: the per-core keys and terms, the
    /// uncore/package key, and the socket-wide energy inputs summed from
    /// the terms.
    struct OperatingPoint {
        bool valid = false;
        std::uint64_t last_use = 0;  // advance count, for eviction
        std::vector<CoreKey> keys;
        std::vector<CoreTerm> terms;
        std::uint64_t uncore_frequency_bits = 0;
        std::uint64_t uncore_voltage_bits = 0;
        bool uncore_halted = false;
        bool system_active = false;
        Power package;  // static + cores + uncore
        Power dram;
        rapl::ActivityVector activity;
        cstates::PackageCState package_state = cstates::PackageCState::PC0;
    };
    /// A TDP-limited socket dithers between neighbouring grants, so a few
    /// operating points are remembered, not just the last.
    static constexpr std::size_t kOperatingPoints = 4;

    /// The PCU inputs for the current state (modulation evaluated at
    /// `now`), written over every field of `in`.
    void fill_pcu_inputs(pcu::PcuInputs& in, Time now, bool system_active,
                         Frequency fastest_system_core) const;
    /// The cdyn of each running (workload, threading), kept while the
    /// workload's modulation factor provably holds
    /// (Workload::steady_through): for good under a constant load, up to
    /// the next phase switch of a square wave, one instant for a sinusoid.
    /// So cdyn_at() runs once per phase and pair, not per core and event.
    class CdynCache {
    public:
        /// cdyn_at(t) for a C0 core that runs a workload, else 0.
        double of(const SimCore& c, Time t) {
            if (c.state != cstates::CState::C0 || c.workload == nullptr) return 0.0;
            const Slot& s = slots_[last_];
            if (s.workload == c.workload && s.ht == (c.threads >= 2) && s.from <= t &&
                t <= s.through) {
                return s.cdyn;
            }
            return lookup(c, t);
        }
        void clear() { size_ = last_ = 0; slots_[0] = Slot{}; }

    private:
        struct Slot {
            const workloads::Workload* workload = nullptr;
            bool ht = false;
            Time from;
            Time through;
            double cdyn = 0.0;
        };
        /// The slot for the core's pair, evaluated afresh if it lapsed.
        double lookup(const SimCore& c, Time t);

        std::array<Slot, 8> slots_{};
        std::size_t size_ = 0;
        std::size_t last_ = 0;  // the slot that answered last
        std::size_t next_ = 0;  // replaced next once every slot is taken
    };

    /// Select the remembered operating point that matches the current
    /// state (cdyn evaluated at the last update), or evaluate it.
    void refresh_operating_point();
    [[nodiscard]] CoreKey key_of(const SimCore& c) const;
    /// Whether `p` was evaluated at the current state.
    [[nodiscard]] bool matches(const OperatingPoint& p) const;
    /// One core's power given its cdyn utilization.
    [[nodiscard]] Power core_power_term(const SimCore& c, double cdyn) const;
    /// Add the uncore's power to the cores' total, given the running
    /// workloads' summed uncore traffic.
    [[nodiscard]] Power with_uncore_power(Power cores, double traffic_sum) const;
    /// DRAM traffic a running core's workload demands at its clock (GB/s).
    [[nodiscard]] double dram_demand_gbs(const SimCore& c) const;
    /// Summed demand, clamped to the SKU's DRAM read ceiling.
    [[nodiscard]] Bandwidth dram_traffic(double demand_gbs) const;
    [[nodiscard]] mem::ConcurrencyConfig concurrency() const;

    const arch::Sku* sku_;
    unsigned id_;
    arch::DieTopology topo_;
    pcu::PcuController pcu_;
    rapl::RaplPackage rapl_;
    mem::BandwidthModel bw_model_;
    power::ThermalModel thermal_;
    std::vector<SimCore> cores_;
    msr::EpbPolicy epb_ = msr::EpbPolicy::Balanced;
    bool turbo_enabled_ = true;
    std::uint64_t uncore_ratio_limit_raw_ = 0;
    bool hwp_enabled_ = false;
    std::uint64_t hwp_request_pkg_raw_ = 0;

    Frequency uncore_freq_;
    Voltage uncore_voltage_;
    bool uncore_halted_ = false;
    std::vector<Frequency> die_uncore_;
    double uncore_cycles_ = 0.0;
    double pkg_c3_residency_ = 0.0;
    double pkg_c6_residency_ = 0.0;
    bool system_active_hint_ = false;
    Time last_update_;

    // DRAM read ceiling for the traffic clamp, fixed by the SKU.
    double dram_peak_gbs_ = 0.0;
    // Reused buffers: advance_to() and pcu_tick() run for every event and
    // every opportunity tick, and allocate nothing.
    std::vector<cstates::CState> core_states_;
    std::array<OperatingPoint, kOperatingPoints> points_;
    std::size_t current_ = 0;  // the operating point in force
    // A memo of a pure function, filled by the const queries too.
    mutable CdynCache cdyn_;
    SocketCounters counters_;
    pcu::PcuInputs pcu_in_;
    pcu::PcuOutputs staged_grants_;
    bool grants_staged_ = false;
};

}  // namespace hsw::core
