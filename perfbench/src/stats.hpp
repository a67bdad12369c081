// Latency summaries for the benchmark's results.
//
// A timing is reported as its median and a tail percentile that still has
// at least ten samples beyond it, together with the sample count, so a
// tail figure is never read off a handful of points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using hsw::util::mean;
using hsw::util::median;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at 1-based rank ceil(pct/100 * n).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double pct);

/// Samples strictly beyond the nearest-rank `pct` percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

/// The nearest-rank `pct` percentile of `values`, which must leave at
/// least `min_beyond` samples beyond it -- a tail read off fewer points is
/// noise. Throws std::runtime_error when it does not.
[[nodiscard]] double supported_percentile(std::vector<double> values, double pct,
                                          std::size_t min_beyond = 10);

/// One closed-loop client's latencies cut into one-second windows, the
/// paper's sampling (medians of one-second samples): only the open
/// window's samples are kept, so memory stays flat however long the run,
/// and a transient stall moves one window instead of the whole figure.
/// Samples that end after the last full window are dropped.
class Windows {
public:
    Windows(std::int64_t start_ns, double seconds);

    void record(std::int64_t end_ns, double value);

    /// Median of each full window's samples, in window order; windows
    /// with no sample are skipped.
    [[nodiscard]] const std::vector<double>& medians();

private:
    void close_window();

    std::int64_t start_ns_;
    std::size_t full_;      // whole windows in the run
    std::size_t open_ = 0;  // index of the window `values_` belongs to
    std::vector<double> values_;
    std::vector<double> medians_;
};

/// The median over every client's window medians.
[[nodiscard]] double median_of_windows(std::vector<Windows>& clients);

}  // namespace perfbench
