// Shared plumbing for the benchmark's workloads: options, the result line,
// seeded request generation and the reference payloads every query
// response is checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "check.hpp"
#include "record.hpp"
#include "service/protocol.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Checkout root: the committed survey CSVs live here.
    std::filesystem::path root;
    /// Scratch space inside the checkout for one run (disk caches).
    std::filesystem::path work;
    /// Where the traced run writes its span files.
    std::filesystem::path spans;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The benchmark's result line.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Folds a workload's check tally into the result.
    void absorb(const Tally& tally);
};

/// splitmix64: one step of the seeded generator every workload draws from.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Engine workers for the survey: min(nproc, 4).
[[nodiscard]] unsigned survey_workers();

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double seconds_between(std::int64_t from_ns, std::int64_t to_ns);

/// Runs `setup` `times` times, calling `teardown` (untimed) between two
/// set-ups, and returns the median set-up wall time in seconds. The last
/// set-up is left standing for the measurement.
template <typename Setup, typename Teardown>
double median_setup_s(unsigned times, Setup&& setup, Teardown&& teardown);

/// A quick-tuned query.
[[nodiscard]] hsw::service::protocol::Request quick_query(const std::string& experiment,
                                                          const std::string& point,
                                                          std::uint64_t seed);

/// The query workloads' working set: for each of `seeds` seeds drawn from
/// `seed`, Fig. 3 and Fig. 4 whole-experiment queries, Fig. 5 both as a
/// whole and as its Haswell-EP point, and one Table V cell picked by the
/// seed. Every entry is a distinct spec.
[[nodiscard]] std::vector<hsw::service::protocol::Request> working_set(std::uint64_t seed,
                                                                       unsigned seeds);

/// `count` whole-experiment Fig. 4 queries on seeds no working set of
/// `seed` uses, so each one computes and stores when first asked.
[[nodiscard]] std::vector<hsw::service::protocol::Request> fresh_fig4(std::uint64_t seed,
                                                                      std::size_t count);

/// Reference payloads, computed by a standalone in-process SurveyService
/// (no disk cache) that is destroyed before this returns. Any rejected
/// query throws: a workload must be made of queries that succeed.
[[nodiscard]] std::vector<std::string> reference_payloads(
    const std::vector<hsw::service::protocol::Request>& requests);

/// Removes `dir` and everything below it, then recreates it empty.
void reset_dir(const std::filesystem::path& dir);

/// Writes a workload's spans to <spans>/<workload>.jsonl.
void write_spans(const Options& opt, const std::string& workload, const Trace& trace);

/// Mean of what `trace` holds per request: the summed self time of every
/// span, divided by `requests`, in nanoseconds. By construction this is
/// what the layers account for of one request's end-to-end time.
[[nodiscard]] double mean_self_ns(const Trace& trace, std::size_t requests);

template <typename Setup, typename Teardown>
double median_setup_s(unsigned times, Setup&& setup, Teardown&& teardown) {
    std::vector<double> samples;
    for (unsigned i = 0; i < times; ++i) {
        if (i > 0) teardown();
        const std::int64_t t0 = now_ns();
        setup();
        samples.push_back(seconds_between(t0, now_ns()));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

}  // namespace perfbench
