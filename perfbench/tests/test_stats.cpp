#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    EXPECT_EQ(percentile(v, 50.0), 50.0);
    EXPECT_EQ(percentile(v, 99.0), 99.0);
    EXPECT_EQ(percentile(v, 100.0), 100.0);
    EXPECT_EQ(samples_beyond(100, 99.0), 1u);
    EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
}

TEST(Percentile, ReportedTailHasAtLeastTenSamplesBeyondIt) {
    std::vector<double> v;
    for (int i = 0; i < 999; ++i) v.push_back(999 - i);
    // p99 of 999 samples has only 9 beyond it: refused.
    EXPECT_THROW((void)supported_percentile(v, 99.0), std::runtime_error);
    EXPECT_EQ(supported_percentile(v, 95.0), 950.0);  // 49 beyond
    v.push_back(1000);
    EXPECT_EQ(samples_beyond(v.size(), 99.0), 10u);
    EXPECT_EQ(supported_percentile(v, 99.0), 990.0);
    // Binary rounding must not cost an exact rank: 99.9% of 10000 is 9990.
    EXPECT_EQ(samples_beyond(10'000, 99.9), 10u);
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

TEST(Windows, MedianPerFullSecond) {
    constexpr std::int64_t kSec = 1'000'000'000;
    Windows w{0, 3.0};
    for (const double v : {5.0, 1.0, 3.0}) w.record(kSec / 2, v);  // window 0
    for (const double v : {10.0, 30.0}) w.record(kSec + 1, v);      // window 1
    w.record(3 * kSec + 5, 99.0);  // after the last full window: dropped
    // Window 2 is empty.
    EXPECT_EQ(w.medians(), (std::vector<double>{3.0, 20.0}));

    Windows other{0, 3.0};
    for (int i = 0; i < 3; ++i) other.record(i * kSec + 1, 7.0);
    std::vector<Windows> clients{w, other};
    EXPECT_EQ(median_of_windows(clients), 7.0);  // median of {3, 20, 7, 7, 7}
}

}  // namespace
}  // namespace perfbench
