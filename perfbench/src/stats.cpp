#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double pct) {
    // The epsilon keeps binary rounding (99.9% of 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double pct) {
    return sorted[nearest_rank(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
    return n == 0 ? 0 : n - nearest_rank(n, pct);
}

double supported_percentile(std::vector<double> values, double pct, std::size_t min_beyond) {
    if (samples_beyond(values.size(), pct) < min_beyond) {
        throw std::runtime_error{"too few samples for a p" + std::to_string(pct) + ": " +
                                 std::to_string(values.size())};
    }
    std::sort(values.begin(), values.end());
    return percentile(values, pct);
}

Windows::Windows(std::int64_t start_ns, double seconds)
    : start_ns_{start_ns}, full_{static_cast<std::size_t>(seconds)} {}

void Windows::record(std::int64_t end_ns, double value) {
    const auto w = static_cast<std::size_t>((end_ns - start_ns_) / 1'000'000'000);
    if (w >= full_) return;
    while (open_ < w) close_window();
    values_.push_back(value);
}

void Windows::close_window() {
    if (!values_.empty()) medians_.push_back(median(values_));
    values_.clear();
    ++open_;
}

const std::vector<double>& Windows::medians() {
    while (open_ < full_) close_window();
    return medians_;
}

double median_of_windows(std::vector<Windows>& clients) {
    std::vector<double> medians;
    for (auto& c : clients) medians.insert(medians.end(), c.medians().begin(), c.medians().end());
    return median(medians);
}

}  // namespace perfbench
