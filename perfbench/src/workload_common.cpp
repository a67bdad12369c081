#include "workload_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "engine/survey_experiments.hpp"
#include "service/service.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace proto = hsw::service::protocol;

void Result::absorb(const Tally& tally) {
    attempted += tally.attempted.load();
    failed += tally.failed.load();
    if (tally.failed.load() != 0) correct = false;
}

std::uint64_t splitmix64(std::uint64_t& state) {
    // mix64 adds the golden-ratio step before it finalizes, so finalizing
    // the old state and then stepping it is one splitmix64 step.
    const std::uint64_t z = hsw::util::mix64(state);
    state += 0x9E3779B97F4A7C15ull;
    return z;
}

unsigned survey_workers() {
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

proto::Request quick_query(const std::string& experiment, const std::string& point,
                           std::uint64_t seed) {
    proto::Request req;
    req.verb = proto::Verb::Query;
    req.experiment = experiment;
    req.point = point;
    req.seed = seed;
    req.quick = true;
    return req;
}

namespace {

const std::vector<std::string>& table5_points() {
    static const std::vector<std::string> points = [] {
        std::vector<std::string> out;
        const auto experiments =
            hsw::engine::survey_experiments(hsw::engine::SurveyTuning::quick());
        for (const auto& job : hsw::engine::find_experiment(experiments, "table5")->jobs) {
            out.push_back(job.spec.point);
        }
        return out;
    }();
    return points;
}

}  // namespace

std::vector<proto::Request> working_set(std::uint64_t seed, unsigned seeds) {
    std::vector<proto::Request> out;
    std::uint64_t state = seed;
    for (unsigned i = 0; i < seeds; ++i) {
        const std::uint64_t s = splitmix64(state);
        out.push_back(quick_query("fig3", "*", s));
        out.push_back(quick_query("fig4", "*", s));
        out.push_back(quick_query("fig5", "*", s));
        out.push_back(quick_query("fig5", "generation=Haswell-EP", s));
        out.push_back(quick_query("table5", table5_points()[s % table5_points().size()], s));
    }
    return out;
}

std::vector<proto::Request> fresh_fig4(std::uint64_t seed, std::size_t count) {
    std::vector<proto::Request> out;
    // A separate splitmix stream from working_set's: the two never share a
    // seed in practice (64-bit draws).
    std::uint64_t state = seed ^ 0xF4E5D6C7B8A99A8Bull;
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(quick_query("fig4", "*", splitmix64(state)));
    }
    return out;
}

std::vector<std::string> reference_payloads(const std::vector<proto::Request>& requests) {
    std::vector<std::string> out(requests.size());
    // A service memoizes one registry per request seed; a fresh service per
    // chunk keeps set-up memory bounded when a pool holds many seeds.
    constexpr std::size_t kChunk = 256;
    const unsigned threads = survey_workers();
    for (std::size_t base = 0; base < requests.size(); base += kChunk) {
        const std::size_t end = std::min(requests.size(), base + kChunk);
        hsw::service::ServiceConfig cfg;
        cfg.workers = threads;
        cfg.max_queue = 4 * kChunk;
        hsw::service::SurveyService reference{cfg};
        std::atomic<std::size_t> next{base};
        std::atomic<bool> rejected{false};
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&] {
                for (std::size_t i = next++; i < end; i = next++) {
                    const auto result = reference.query(requests[i]);
                    if (!result.ok()) {
                        rejected = true;
                        return;
                    }
                    out[i] = *result.payload;
                }
            });
        }
        for (auto& t : pool) t.join();
        if (rejected) throw std::runtime_error{"reference service rejected a query"};
    }
    return out;
}

void reset_dir(const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

void write_spans(const Options& opt, const std::string& workload, const Trace& trace) {
    std::filesystem::create_directories(opt.spans);
    const auto path = opt.spans / (workload + ".jsonl");
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    trace.write_jsonl(out);
    if (!out) throw std::runtime_error{"cannot write " + path.string()};
}

double mean_self_ns(const Trace& trace, std::size_t requests) {
    double total = 0.0;
    for (const auto& [name, layer] : trace.layer_times()) {
        total += static_cast<double>(layer.self_total_ns);
    }
    return total / static_cast<double>(requests);
}

}  // namespace perfbench
