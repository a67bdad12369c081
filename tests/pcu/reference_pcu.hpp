// Naive reference model of the PCU opportunity-grid evaluation.
//
// A verbatim copy of the straightforward PcuController pipeline: every
// tick re-evaluates the V/f polynomial, every core's power term and the
// whole throttle descent from the caps, allocating fresh vectors as it
// goes. It is slow and obviously correct; the differential fuzz test
// holds the incremental controller to it bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "pcu/pcu.hpp"

namespace hsw::pcu::reference {

class ReferencePcu {
public:
    ReferencePcu(const arch::Sku& sku, unsigned socket_id, const PcuPolicy* policy);

    [[nodiscard]] PcuOutputs evaluate(const PcuInputs& in, Time now);

private:
    [[nodiscard]] Power estimate_package_power(const PcuInputs& in,
                                               const std::vector<unsigned>& core_ratios,
                                               Frequency uncore) const;
    [[nodiscard]] Power effective_budget(double current_intensity) const;
    [[nodiscard]] PcuOutputs evaluate_impl(const PcuInputs& in, Time now);
    void apply_hwp(PcuInputs& in) const;
    void fill_die_uncore(const PcuInputs& in, PcuOutputs& out) const;
    [[nodiscard]] Voltage core_voltage(unsigned core, Frequency f, unsigned level) const;

    const arch::Sku* sku_;
    unsigned socket_id_;
    const PcuPolicy* policy_;
    power::VfCurve core_curve_;
    power::VfCurve uncore_curve_;
    std::vector<AvxLicenseLevels> licenses_;
    double core_dither_accum_ = 0.0;
    double uncore_dither_accum_ = 0.0;
    std::uint64_t tick_count_ = 0;
    Time last_eet_poll_ = Time::ns(-1'000'000'000);
    double eet_stall_snapshot_ = 0.0;
};

}  // namespace hsw::pcu::reference
