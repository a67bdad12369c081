#include "meter/lmg450.hpp"

#include "arch/calibration.hpp"

namespace hsw::meter {

namespace cal = hsw::arch::cal;

Lmg450::Lmg450(std::function<Power()> true_ac_power, std::uint64_t seed)
    : true_ac_power_{std::move(true_ac_power)}, rng_{seed} {
    series_.reserve(kReservedSamples);
}

MeterSample Lmg450::sample(Time now) {
    const double truth = true_ac_power_().as_watts();
    // Specified accuracy: 0.07 % of reading + 0.23 W; treat as the 2-sigma
    // band of a Gaussian error.
    const double sigma = (truth * cal::kMeterRelativeError +
                          cal::kMeterAbsoluteError.as_watts()) / 2.0;
    const MeterSample s{now, Power::watts(truth + rng_.normal(0.0, sigma))};
    series_.push_back(s);
    return s;
}

Power Lmg450::average(Time from, Time to) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : series_) {
        if (s.when >= from && s.when < to) {
            sum += s.power.as_watts();
            ++n;
        }
    }
    return n == 0 ? Power::zero() : Power::watts(sum / static_cast<double>(n));
}

}  // namespace hsw::meter
