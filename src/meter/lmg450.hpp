// ZES ZIMMER LMG450 power meter model (Section III, [19]).
//
// Provides AC power readings for the full node at 20 Sa/s with an accuracy
// of 0.07 % + 0.23 W. Internally the real instrument samples much faster;
// we model each published sample as the true power plus the specified
// error band.
#pragma once

#include <functional>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace hsw::meter {

using util::Power;
using util::Time;

struct MeterSample {
    Time when;
    Power power;
};

class Lmg450 {
public:
    /// `true_ac_power` supplies the instantaneous ground-truth wall power.
    Lmg450(std::function<Power()> true_ac_power, std::uint64_t seed = 42);

    /// Take one sample at simulation time `now` (the harness drives the
    /// 20 Sa/s cadence).
    MeterSample sample(Time now);

    [[nodiscard]] const std::vector<MeterSample>& series() const { return series_; }
    void clear() { series_.clear(); }

    /// Mean power over all samples in [from, to).
    [[nodiscard]] Power average(Time from, Time to) const;

    static constexpr Time kSamplePeriod = Time::ms(50);  // 20 Sa/s
    /// Samples the series holds before its first reallocation: one
    /// simulated minute, so a node's steady state samples without
    /// allocating.
    static constexpr std::size_t kReservedSamples = 1200;

private:
    std::function<Power()> true_ac_power_;
    util::Rng rng_;
    std::vector<MeterSample> series_;
};

}  // namespace hsw::meter
