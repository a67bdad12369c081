// survey-cold: the full paper reproduction users run -- all fifteen
// experiments (38 jobs) at full tuning through engine::run_experiments,
// min(nproc, 4) workers, no result cache. The node model does almost all
// of the work; the service, reactor and router do none.
//
// Its inputs are pinned by the committed goldens: the survey runs at the
// default seed, and every CSV it assembles must equal the committed root
// CSV byte for byte. The workload seed draws the order the experiments
// and their jobs are submitted in, a fresh order for every survey of a
// run, which moves the schedule but not the work or a byte of the output.
#include <atomic>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/engine.hpp"
#include "engine/survey_experiments.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Simulator events the full survey dispatches at the default seed. A
/// change that only makes the survey faster leaves this count unchanged.
constexpr std::uint64_t kSurveyEvents = 13'834'727;
constexpr std::size_t kSurveyCsvs = 15;
/// One set-up takes well under a millisecond, too short to time steadily
/// on its own: a set-up sample times this many set-ups back to back, each
/// replacing the last.
constexpr unsigned kSetupBatch = 64;
/// Set-up samples before the first survey and after each survey. One
/// thread's speed on a shared host drifts over seconds, so the samples are
/// spread over the run, as the surveys are.
constexpr unsigned kSetupSamplesFirst = 5;
constexpr unsigned kSetupSamplesAfterSurvey = 3;

struct Survey {
    std::vector<hsw::engine::Experiment> experiments;
    std::map<std::string, std::string> goldens;  // filename -> committed bytes
};

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error{"cannot read " + path.string()};
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/// A seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t& state) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[splitmix64(state) % i]);
    return p;
}

/// Shuffles the order the experiments and each experiment's jobs are
/// submitted in. An experiment's assemble still receives its payloads in
/// point order, so every artifact is unchanged.
void shuffle_submission(std::vector<hsw::engine::Experiment>& experiments,
                        std::uint64_t seed) {
    std::uint64_t state = seed;
    for (auto& e : experiments) {
        const auto p = permutation(e.jobs.size(), state);
        std::vector<hsw::engine::Job> jobs;
        for (const std::size_t i : p) jobs.push_back(std::move(e.jobs[i]));
        e.jobs = std::move(jobs);
        e.assemble = [p, assemble = std::move(e.assemble)](
                         const std::vector<std::string>& payloads) {
            std::vector<std::string> in_point_order(payloads.size());
            for (std::size_t k = 0; k < p.size(); ++k) in_point_order[p[k]] = payloads[k];
            return assemble(in_point_order);
        };
    }
    std::vector<hsw::engine::Experiment> shuffled;
    for (const std::size_t i : permutation(experiments.size(), state)) {
        shuffled.push_back(std::move(experiments[i]));
    }
    experiments = std::move(shuffled);
}

/// The survey's jobs in the submission order `order` draws, and the
/// committed goldens to check them against.
Survey set_up(const Options& opt, std::uint64_t order) {
    Survey s;
    s.experiments = hsw::engine::survey_experiments(hsw::engine::SurveyTuning{});
    shuffle_submission(s.experiments, order);
    for (const auto& entry : std::filesystem::directory_iterator{opt.root}) {
        if (entry.path().extension() == ".csv") {
            s.goldens[entry.path().filename().string()] = read_file(entry.path());
        }
    }
    if (s.goldens.size() != kSurveyCsvs) {
        throw std::runtime_error{"expected " + std::to_string(kSurveyCsvs) +
                                 " committed survey CSVs in " + opt.root.string()};
    }
    return s;
}

/// CSV artifacts that differ from (or are missing against) the goldens.
std::size_t csv_mismatches(const Survey& s,
                           const std::vector<hsw::engine::Artifact>& artifacts) {
    std::size_t matched = 0;
    std::size_t wrong = 0;
    for (const auto& a : artifacts) {
        if (a.kind != hsw::engine::ArtifactKind::Csv) continue;
        const auto golden = s.goldens.find(a.filename);
        if (golden != s.goldens.end() && golden->second == a.contents) {
            ++matched;
        } else {
            ++wrong;
        }
    }
    return wrong + (s.goldens.size() - std::min(matched, s.goldens.size()));
}

std::uint64_t total_events(const hsw::engine::RunReport& report) {
    std::uint64_t events = 0;
    for (const auto& job : report.jobs) events += job.sim_events;
    return events;
}

/// One survey through the engine, checked: every job is an operation, and
/// a failed job, a CSV differing from its golden or a wrong event count
/// each count as a failure.
hsw::engine::RunReport run_checked(const Survey& s, Tally& tally,
                                   std::function<void(const hsw::engine::ProgressEvent&)>
                                       on_progress = {}) {
    hsw::engine::RunOptions ro;
    ro.jobs = survey_workers();
    ro.on_progress = std::move(on_progress);
    auto report = hsw::engine::run_experiments(s.experiments, ro);
    for (const auto& job : report.jobs) tally.count(job.ok);
    for (std::size_t i = csv_mismatches(s, report.artifacts); i > 0; --i) tally.count(false);
    if (total_events(report) != kSurveyEvents) tally.count(false);
    return report;
}

}  // namespace

Result run_survey_cold(const Options& opt) {
    Result out;
    Survey survey;
    std::uint64_t orders = opt.seed;
    std::vector<double> setup_s;
    // Each call sets up the next survey, in the next submission order.
    auto sample_setup = [&](unsigned samples) {
        const std::uint64_t order = splitmix64(orders);
        for (unsigned k = 0; k < samples; ++k) {
            const std::int64_t s0 = now_ns();
            for (unsigned i = 0; i < kSetupBatch; ++i) survey = set_up(opt, order);
            setup_s.push_back(seconds_between(s0, now_ns()) / kSetupBatch);
        }
    };
    sample_setup(kSetupSamplesFirst);

    Tally tally;
    // Warm-up: a process's first survey pays for first touches (8% slower
    // than the later ones in the median of eleven runs on a 4-vCPU VM). It
    // is checked but not timed.
    run_checked(survey, tally);
    sample_setup(kSetupSamplesAfterSurvey);

    double busy_us = 0.0;
    std::size_t jobs = 0;
    double wall_s = 0.0;
    unsigned surveys = 0;
    const std::int64_t t0 = now_ns();
    // Whole surveys only, as many as end closest to the run's time.
    do {
        const auto report = run_checked(survey, tally);
        wall_s += report.wall_ms / 1000.0;
        ++surveys;
        for (const auto& job : report.jobs) busy_us += job.wall_ms * 1000.0;
        jobs += report.jobs.size();
        sample_setup(kSetupSamplesAfterSurvey);
    } while (seconds_between(t0, now_ns()) + wall_s / surveys / 2 < opt.seconds);

    out.absorb(tally);
    out.add("setup_s", median(setup_s), "s");
    // The mean, not the median: the middle of the 38 jobs falls among the
    // Table V jobs, whose times move with what each submission order runs
    // beside them, while the mean is the survey's whole busy time.
    out.add("latency_us", busy_us / static_cast<double>(jobs), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

void trace_survey_cold(const Options& opt, Result& out) {
    const Survey survey = set_up(opt, opt.seed);
    std::map<std::string, std::uint64_t> job_index;  // "experiment/point" -> survey order
    std::vector<const hsw::engine::Job*> flat;
    for (const auto& e : survey.experiments) {
        for (const auto& job : e.jobs) {
            job_index[job.spec.label()] = flat.size();
            flat.push_back(&job);
        }
    }
    Tally tally;
    const unsigned workers = survey_workers();

    // Untraced: the end-to-end reference and the engine's own job report.
    const auto report = run_checked(survey, tally);

    // Rung 0: the engine. Each job is a span reported when it resolves.
    SpanBuffer engine_spans{0, flat.size()};
    const auto traced = run_checked(survey, tally, [&](const hsw::engine::ProgressEvent& ev) {
        const std::int64_t end = now_ns();
        const auto ns = static_cast<std::int64_t>(ev.wall_ms * 1e6);
        engine_spans.add("engine.job", job_index.at(ev.label), 0, end - ns, end);
    });

    // Rung 1: the same job bodies called directly, on as many threads.
    std::vector<SpanBuffer> body_spans;
    for (unsigned t = 0; t < workers; ++t) body_spans.emplace_back(1, flat.size());
    std::vector<std::string> payloads(flat.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < workers; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i = next++; i < flat.size(); i = next++) {
                const std::uint32_t id = body_spans[t].open("survey.job", i);
                payloads[i] = flat[i]->run(flat[i]->spec);
                body_spans[t].close(id);
            }
        });
    }
    for (auto& t : pool) t.join();
    // The direct bodies must assemble to the same goldens.
    std::vector<hsw::engine::Artifact> artifacts;
    auto next_payload = payloads.begin();
    for (const auto& e : survey.experiments) {
        const auto end = next_payload + static_cast<std::ptrdiff_t>(e.jobs.size());
        for (auto& a : e.assemble({next_payload, end})) artifacts.push_back(std::move(a));
        next_payload = end;
    }
    for (std::size_t i = 0; i < flat.size(); ++i) tally.count(!payloads[i].empty());
    for (std::size_t i = csv_mismatches(survey, artifacts); i > 0; --i) tally.count(false);

    Trace trace;
    trace.merge(engine_spans);
    for (const auto& b : body_spans) trace.merge(b);
    trace.link_rungs();
    write_spans(opt, "survey-cold", trace);
    out.absorb(tally);

    std::map<std::string, double> experiment_ms;
    double busy_ms = 0.0;
    double critical_ms = 0.0;
    for (const auto& job : report.jobs) {
        experiment_ms[job.experiment] += job.wall_ms;
        busy_ms += job.wall_ms;
        critical_ms = std::max(critical_ms, job.wall_ms);
    }
    for (const auto& e : survey.experiments) {
        out.add("survey." + e.name + ".job_ms", experiment_ms[e.name], "ms");
    }
    const double events = static_cast<double>(total_events(report));
    out.add("survey_wall_s", report.wall_ms / 1000.0, "s");
    out.add("sim_events_per_s", events / (busy_ms / 1000.0), "1/s");
    out.add("engine.critical_job_ms", critical_ms, "ms");
    out.add("engine.busy_share", busy_ms / (workers * report.wall_ms), "ratio");
    out.add("engine.retries", static_cast<double>(report.retries), "count");
    out.add("sim.events", events, "count");

    // Residual: the workers' capacity over the untraced wall time minus
    // the layers' self times (engine + job bodies); what is left is worker
    // time the survey's critical path kept idle.
    const double capacity_ns = workers * report.wall_ms * 1e6;
    const double layers_ns = mean_self_ns(trace, 1);
    out.add("trace.survey-cold.residual_share", (capacity_ns - layers_ns) / capacity_ns,
            "ratio");
    out.add("trace.survey-cold.overhead_share", 1.0 - report.wall_ms / traced.wall_ms,
            "ratio");
}

}  // namespace perfbench
