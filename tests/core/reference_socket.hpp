// Naive reference model of a socket's time integration.
//
// A verbatim copy of the straightforward Socket::advance_to(): every
// advance re-evaluates every core's cdyn, power term, IPC and DRAM demand
// and the socket-wide uncore, DRAM, activity and package C-state sums, and
// every PCU tick evaluates cdyn once per core. It is slow and obviously
// correct; the differential fuzz test holds the memoized Socket to it bit
// for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/sku.hpp"
#include "core/socket.hpp"
#include "pcu/pcu.hpp"
#include "power/thermal.hpp"
#include "rapl/rapl.hpp"

namespace hsw::core::reference {

class ReferenceSocket {
public:
    ReferenceSocket(const arch::Sku& sku, unsigned socket_id, bool turbo_enabled,
                    rapl::DramMode dram_mode, std::uint64_t seed);

    void advance_to(Time now);
    [[nodiscard]] const pcu::PcuOutputs* pcu_tick(Time now, bool system_active,
                                                  Frequency fastest_system_core);
    void apply_grants(const pcu::PcuOutputs& out);

    [[nodiscard]] std::vector<SimCore>& cores() { return cores_; }
    [[nodiscard]] const std::vector<SimCore>& cores() const { return cores_; }
    void set_system_active_hint(bool active) { system_active_hint_ = active; }
    [[nodiscard]] double uncore_cycles() const { return uncore_cycles_; }
    [[nodiscard]] double pkg_c3_residency() const { return pkg_c3_residency_; }
    [[nodiscard]] double pkg_c6_residency() const { return pkg_c6_residency_; }
    [[nodiscard]] rapl::RaplPackage& rapl() { return rapl_; }
    [[nodiscard]] const rapl::RaplPackage& rapl() const { return rapl_; }
    [[nodiscard]] const power::ThermalModel& thermal() const { return thermal_; }

    [[nodiscard]] Power current_package_power(Time now) const;
    [[nodiscard]] Power current_dram_power() const;
    [[nodiscard]] Bandwidth current_dram_traffic() const;

private:
    void fill_pcu_inputs(pcu::PcuInputs& in, Time now, bool system_active,
                         Frequency fastest_system_core) const;
    [[nodiscard]] Power core_power_at(const SimCore& c, Time now) const;
    [[nodiscard]] Power with_uncore_power(Power cores, double traffic_sum) const;
    [[nodiscard]] double dram_demand_gbs(const SimCore& c) const;
    [[nodiscard]] Bandwidth dram_traffic(double demand_gbs) const;

    const arch::Sku* sku_;
    pcu::PcuController pcu_;
    rapl::RaplPackage rapl_;
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
    double uncore_cycles_ = 0.0;
    double pkg_c3_residency_ = 0.0;
    double pkg_c6_residency_ = 0.0;
    bool system_active_hint_ = false;
    Time last_update_;
    double dram_peak_gbs_ = 0.0;
    std::vector<cstates::CState> core_states_;
    pcu::PcuInputs pcu_in_;
};

}  // namespace hsw::core::reference
