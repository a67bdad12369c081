// SurveyService: determinism against the batch engine, coalescing,
// admission control (overload, deadline, drain), and structured rejection.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/blob.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "util/minijson.hpp"

using namespace hsw;
using namespace hsw::service;

namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& leaf) {
    const fs::path dir = fs::path{testing::TempDir()} / ("hsw-service-" + leaf);
    fs::remove_all(dir);
    return dir;
}

protocol::Request query_request(const std::string& experiment,
                                const std::string& point = "*") {
    protocol::Request req;
    req.verb = protocol::Verb::Query;
    req.experiment = experiment;
    req.point = point;
    req.quick = true;
    return req;
}

/// Open/closed latch test jobs can block on, so tests control exactly when
/// a "computation" finishes.
struct Gate {
    std::mutex lock;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> entered{0};

    void wait() {
        entered.fetch_add(1);
        std::unique_lock guard{lock};
        cv.wait(guard, [this] { return open; });
    }
    void release() {
        {
            std::lock_guard guard{lock};
            open = true;
        }
        cv.notify_all();
    }
    void await_entered(int n) {
        while (entered.load() < n) std::this_thread::yield();
    }
};

/// Registry with two experiments: "toy" (three instant points) and "slow"
/// (one point that blocks on `gate` and counts its invocations).
struct TestRegistry {
    std::shared_ptr<Gate> gate = std::make_shared<Gate>();
    std::shared_ptr<std::atomic<int>> slow_runs = std::make_shared<std::atomic<int>>(0);

    std::function<std::vector<engine::Experiment>(const protocol::Request&)>
    factory() const {
        auto gate_ref = gate;
        auto runs_ref = slow_runs;
        return [gate_ref, runs_ref](const protocol::Request& request) {
            std::vector<engine::Experiment> out;

            engine::Experiment toy;
            toy.name = "toy";
            toy.description = "instant three-point experiment";
            for (int p = 0; p < 3; ++p) {
                engine::Job job;
                job.spec.experiment = "toy";
                job.spec.point = "p" + std::to_string(p);
                job.spec.base_seed = request.seed;
                job.run = [](const engine::ExperimentSpec& spec) {
                    return "payload(" + spec.label() + ", seed=" +
                           std::to_string(spec.job_seed()) + ")";
                };
                toy.jobs.push_back(std::move(job));
            }
            toy.assemble = [](const std::vector<std::string>& payloads) {
                std::string merged;
                for (const auto& p : payloads) merged += p + '\n';
                return std::vector<engine::Artifact>{
                    {"toy.csv", engine::ArtifactKind::Csv, merged},
                    {"toy.txt", engine::ArtifactKind::Render, "render\n" + merged}};
            };
            out.push_back(std::move(toy));

            engine::Experiment slow;
            slow.name = "slow";
            slow.description = "blocks until the test opens the gate";
            engine::Job job;
            job.spec.experiment = "slow";
            job.spec.point = "all";
            job.spec.base_seed = request.seed;
            job.run = [gate_ref, runs_ref](const engine::ExperimentSpec& spec) {
                runs_ref->fetch_add(1);
                gate_ref->wait();
                return "slow-payload seed=" + std::to_string(spec.job_seed());
            };
            slow.jobs.push_back(std::move(job));
            slow.assemble = [](const std::vector<std::string>& payloads) {
                return std::vector<engine::Artifact>{
                    {"slow.csv", engine::ArtifactKind::Csv, payloads.at(0)}};
            };
            out.push_back(std::move(slow));
            return out;
        };
    }
};

/// The batch engine's answer for one quick-tuning experiment, packed the
/// way the service packs a whole-experiment response.
std::string batch_artifacts_blob(const std::string& experiment_name,
                                 std::uint64_t seed) {
    engine::SurveyTuning tuning = engine::SurveyTuning::quick();
    tuning.seed = seed;
    auto experiments = engine::survey_experiments(tuning);
    const engine::Experiment* e =
        engine::find_experiment(experiments, experiment_name);
    EXPECT_NE(e, nullptr);
    engine::RunOptions options;
    options.jobs = 2;  // any thread count: engine output is deterministic
    const engine::RunReport report = engine::run_experiments({*e}, options);
    EXPECT_TRUE(report.ok());
    engine::BlobSections sections;
    for (const auto& artifact : report.artifacts) {
        const char* prefix =
            artifact.kind == engine::ArtifactKind::Render ? "render:" : "csv:";
        sections.emplace_back(prefix + artifact.filename, artifact.contents);
    }
    return engine::pack_sections(sections);
}

}  // namespace

// --- Determinism: the acceptance bar for the whole subsystem ---

TEST(ServiceDeterminism, ByteIdenticalAcrossColdWarmAndHotPaths) {
    const std::string expected = batch_artifacts_blob("fig3", 0xC0FFEE);
    const fs::path disk = fresh_dir("det-disk");

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.disk_cache_dir = disk;
    {
        SurveyService svc{cfg};
        // Cold: nothing cached anywhere.
        auto cold = svc.query(query_request("fig3"));
        ASSERT_TRUE(cold.ok()) << cold.message;
        EXPECT_EQ(cold.source, protocol::Source::Computed);
        EXPECT_EQ(*cold.payload, expected);

        // Hot: second identical query is served from memory, same bytes.
        auto hot = svc.query(query_request("fig3"));
        ASSERT_TRUE(hot.ok());
        EXPECT_EQ(hot.source, protocol::Source::HotCache);
        EXPECT_EQ(*hot.payload, expected);
    }

    // Warm disk: a fresh service sharing the cache dir, hot cache disabled
    // so the payload must come through the on-disk path.
    ServiceConfig warm_cfg = cfg;
    warm_cfg.hot_cache.max_bytes = 0;
    SurveyService warm{warm_cfg};
    auto disk_hit = warm.query(query_request("fig3"));
    ASSERT_TRUE(disk_hit.ok());
    EXPECT_EQ(disk_hit.source, protocol::Source::DiskCache);
    EXPECT_EQ(*disk_hit.payload, expected);
}

TEST(ServiceDeterminism, ByteIdenticalAcrossClientConcurrency) {
    const std::string expected = batch_artifacts_blob("fig3", 0xC0FFEE);

    ServiceConfig cfg;
    cfg.workers = 4;  // no disk cache: exercise compute + coalesce + hot
    SurveyService svc{cfg};

    constexpr int kClients = 16;
    std::vector<std::future<SurveyService::QueryResult>> results;
    for (int i = 0; i < kClients; ++i) {
        results.push_back(std::async(std::launch::async, [&svc] {
            return svc.query(query_request("fig3"));
        }));
    }
    for (auto& f : results) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.message;
        EXPECT_EQ(*r.payload, expected);
    }
}

TEST(ServiceDeterminism, NamedPointMatchesEngineJobBytes) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    auto result = svc.query(query_request("toy", "p1"));
    ASSERT_TRUE(result.ok()) << result.message;

    // Recompute the same job directly through the engine's entry point.
    protocol::Request req = query_request("toy", "p1");
    const auto experiments = registry.factory()(req);
    const engine::Job& job = experiments.at(0).jobs.at(1);
    EXPECT_EQ(*result.payload, engine::run_job(job).payload);
}

// --- Coalescing ---

TEST(ServiceTest, ConcurrentIdenticalQueriesComputeExactlyOnce) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    constexpr int kClients = 8;
    std::vector<std::future<SurveyService::QueryResult>> results;
    for (int i = 0; i < kClients; ++i) {
        results.push_back(std::async(std::launch::async, [&svc] {
            return svc.query(query_request("slow", "all"));
        }));
    }
    // Exactly one compute enters the gate no matter how many clients wait.
    registry.gate->await_entered(1);
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    EXPECT_EQ(registry.slow_runs->load(), 1);
    registry.gate->release();

    const void* first_bytes = nullptr;
    for (auto& f : results) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.message;
        // Followers and hot-cache hits share the leader's allocation.
        if (!first_bytes) first_bytes = r.payload.get();
        EXPECT_EQ(r.payload.get(), first_bytes);
    }
    EXPECT_EQ(registry.slow_runs->load(), 1);
    const auto stats = svc.stats();
    EXPECT_EQ(stats.computed, 1u);
    // A straggler that starts after the leader completes is served by the
    // hot or response cache instead of coalescing; all three share the
    // leader's allocation.
    EXPECT_EQ(stats.coalesced + stats.hot_hits + stats.response_hits,
              static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServiceTest, TinyHotCacheStillServesEveryWaiter) {
    // A hot cache far smaller than the payload: the pinned in-flight entry
    // must survive the fan-out, then become evictable.
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.hot_cache.max_bytes = 8;
    cfg.hot_cache.shards = 1;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};
    registry.gate->release();  // slow jobs run instantly in this test

    std::vector<std::future<SurveyService::QueryResult>> results;
    for (int i = 0; i < 6; ++i) {
        results.push_back(std::async(std::launch::async, [&svc] {
            return svc.query(query_request("slow", "all"));
        }));
    }
    for (auto& f : results) {
        auto r = f.get();
        ASSERT_TRUE(r.ok()) << r.message;
        EXPECT_NE(r.payload->find("slow-payload"), std::string::npos);
    }
}

// --- Admission control ---

TEST(ServiceTest, OverloadRejectsInsteadOfHanging) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.max_queue = 1;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    // Distinct seeds = distinct specs: no coalescing, each needs a slot.
    auto run = [&svc](std::uint64_t seed) {
        protocol::Request req = query_request("slow", "all");
        req.seed = seed;
        return svc.query(req);
    };
    auto q1 = std::async(std::launch::async, run, 1);
    registry.gate->await_entered(1);  // worker occupied
    auto q2 = std::async(std::launch::async, run, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    auto q3 = std::async(std::launch::async, run, 3);

    // The queue holds one; with the worker blocked, one of q2/q3 must be
    // refused -- promptly, with a structured code, while the gate is still
    // shut (i.e. the rejection cannot depend on the compute finishing).
    const auto reject_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (svc.stats().rejected_overload == 0 &&
           std::chrono::steady_clock::now() < reject_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    EXPECT_EQ(svc.stats().rejected_overload, 1u);

    registry.gate->release();
    std::vector<SurveyService::QueryResult> outcomes;
    outcomes.push_back(q1.get());
    outcomes.push_back(q2.get());
    outcomes.push_back(q3.get());

    int ok = 0, overloaded = 0;
    for (const auto& r : outcomes) {
        if (r.ok()) ++ok;
        if (r.code == protocol::ErrorCode::Overloaded) ++overloaded;
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(overloaded, 1);
    EXPECT_EQ(svc.stats().rejected_overload, 1u);

    // The rejection is also mirrored as a ServiceAdmission diagnostic.
    const auto diags = svc.admission_diagnostics();
    ASSERT_FALSE(diags.empty());
    bool found = false;
    for (const auto& d : diags) {
        if (d.invariant == analysis::Invariant::ServiceAdmission &&
            d.message.find("overloaded") != std::string::npos) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(ServiceTest, DeadlineExceededIsStructuredAndPrompt) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    protocol::Request req = query_request("slow", "all");
    req.deadline_ms = 50;
    const auto t0 = std::chrono::steady_clock::now();
    auto result = svc.query(req);
    const auto elapsed = std::chrono::steady_clock::now() - t0;

    EXPECT_EQ(result.code, protocol::ErrorCode::DeadlineExceeded);
    EXPECT_LT(elapsed, std::chrono::seconds{5});
    EXPECT_EQ(svc.stats().rejected_deadline, 1u);

    registry.gate->release();  // let the in-flight leader finish for drain
}

TEST(ServiceTest, DrainFinishesInFlightWorkAndRefusesNewWork) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    auto in_flight = std::async(std::launch::async, [&svc] {
        return svc.query(query_request("slow", "all"));
    });
    registry.gate->await_entered(1);

    auto drainer = std::async(std::launch::async, [&svc] { svc.drain(); });
    std::this_thread::sleep_for(std::chrono::milliseconds{30});
    EXPECT_TRUE(svc.draining());
    registry.gate->release();
    drainer.get();

    // The request that was already in flight completed with real bytes.
    auto r = in_flight.get();
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_NE(r.payload->find("slow-payload"), std::string::npos);

    // Anything after drain is a structured refusal.
    auto late = svc.query(query_request("toy"));
    EXPECT_EQ(late.code, protocol::ErrorCode::ShuttingDown);
    EXPECT_GE(svc.stats().rejected_draining, 1u);
}

// --- Request validation ---

TEST(ServiceTest, UnknownExperimentListsRegisteredNames) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    auto result = svc.query(query_request("fig99"));
    EXPECT_EQ(result.code, protocol::ErrorCode::UnknownExperiment);
    EXPECT_NE(result.message.find("toy"), std::string::npos);
    EXPECT_NE(result.message.find("slow"), std::string::npos);
    EXPECT_EQ(svc.stats().rejected_unknown, 1u);
}

TEST(ServiceTest, UnknownPointListsExperimentPoints) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    auto result = svc.query(query_request("toy", "p9"));
    EXPECT_EQ(result.code, protocol::ErrorCode::UnknownPoint);
    EXPECT_NE(result.message.find("p0"), std::string::npos);
    EXPECT_NE(result.message.find("p2"), std::string::npos);
}

TEST(ServiceTest, JobFailureMapsToInternalWithoutPoisoningRetries) {
    auto fail_once = std::make_shared<std::atomic<bool>>(true);
    ServiceConfig cfg;
    cfg.registry_factory = [fail_once](const protocol::Request& request) {
        engine::Experiment e;
        e.name = "flaky";
        e.description = "fails on the first run only";
        engine::Job job;
        job.spec.experiment = "flaky";
        job.spec.point = "all";
        job.spec.base_seed = request.seed;
        job.run = [fail_once](const engine::ExperimentSpec&) -> std::string {
            if (fail_once->exchange(false)) throw std::runtime_error{"transient"};
            return "recovered";
        };
        e.jobs.push_back(std::move(job));
        return std::vector<engine::Experiment>{std::move(e)};
    };
    SurveyService svc{cfg};

    auto first = svc.query(query_request("flaky", "all"));
    EXPECT_EQ(first.code, protocol::ErrorCode::Internal);
    EXPECT_NE(first.message.find("transient"), std::string::npos);

    // Failure is cached nowhere: the retry computes fresh and succeeds.
    auto second = svc.query(query_request("flaky", "all"));
    ASSERT_TRUE(second.ok()) << second.message;
    EXPECT_EQ(*second.payload, "recovered");
    EXPECT_EQ(svc.stats().failed, 1u);
}

// --- Verb dispatch ---

TEST(ServiceTest, HandleDispatchesControlVerbs) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};

    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    EXPECT_EQ(svc.handle(ping).payload, "pong");

    protocol::Request stats;
    stats.verb = protocol::Verb::Stats;
    const auto stats_response = svc.handle(stats);
    EXPECT_TRUE(stats_response.ok());
    EXPECT_NE(stats_response.payload.find("survey-service stats"),
              std::string::npos);

    EXPECT_FALSE(svc.shutdown_requested());
    protocol::Request shutdown;
    shutdown.verb = protocol::Verb::Shutdown;
    EXPECT_EQ(svc.handle(shutdown).payload, "draining");
    EXPECT_TRUE(svc.shutdown_requested());
}

TEST(ServiceTest, MetricsVerbServesBothExpositionFormats) {
    obs::set_metrics_enabled(true);
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.registry_factory = registry.factory();
    SurveyService svc{cfg};
    // Route through handle(): that is where the request counter and the
    // latency histogram live.
    ASSERT_EQ(svc.handle(query_request("toy")).code, protocol::ErrorCode::None);

    protocol::Request metrics;
    metrics.verb = protocol::Verb::Metrics;
    const auto prom = svc.handle(metrics);
    ASSERT_TRUE(prom.ok());
    EXPECT_NE(prom.payload.find("# TYPE hsw_service_requests counter"),
              std::string::npos);
    EXPECT_NE(prom.payload.find("hsw_service_requests_total"), std::string::npos);

    metrics.format = protocol::MetricsFormat::Json;
    const auto json_response = svc.handle(metrics);
    ASSERT_TRUE(json_response.ok());
    std::string error;
    const auto doc = util::json::parse(json_response.payload, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const util::json::Value* counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GE(counters->number_or("hsw_service_requests", -1), 1.0);
    obs::set_metrics_enabled(false);
}

TEST(ServiceTest, RegistryMapStaysBoundedAcrossFreshSeeds) {
    // Every fresh seed builds a registry; the map keeps only the most
    // recently used kMaxRegistries, and a rebuilt registry answers with the
    // same bytes as the evicted one did.
    TestRegistry registry;
    auto builds = std::make_shared<std::atomic<int>>(0);
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.hot_cache.max_bytes = 8;  // no response caching: every query resolves
    cfg.hot_cache.shards = 1;     // its registry
    cfg.registry_factory = [inner = registry.factory(), builds](const protocol::Request& r) {
        builds->fetch_add(1);
        return inner(r);
    };
    SurveyService svc{cfg};
    auto query_seed = [&svc](std::uint64_t seed) {
        protocol::Request req = query_request("toy");
        req.seed = seed;
        const auto r = svc.query(req);
        EXPECT_TRUE(r.ok()) << r.message;
        return r.ok() ? *r.payload : std::string{};
    };

    constexpr std::uint64_t kSeeds = 1000;
    std::vector<std::string> first(kSeeds + 1);
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        first[seed] = query_seed(seed);
        ASSERT_LE(svc.registry_count(), SurveyService::kMaxRegistries);
    }
    EXPECT_EQ(svc.registry_count(), SurveyService::kMaxRegistries);
    EXPECT_EQ(builds->load(), static_cast<int>(kSeeds));

    // Second pass: every registry was evicted and is rebuilt, byte-identical.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        ASSERT_EQ(query_seed(seed), first[seed]) << "seed " << seed;
    }
    EXPECT_EQ(builds->load(), static_cast<int>(2 * kSeeds));
    EXPECT_EQ(svc.registry_count(), SurveyService::kMaxRegistries);

    // Least recently used goes first: touch the oldest entry, add a seed,
    // and the next-oldest is the one evicted.
    const std::uint64_t oldest = kSeeds - SurveyService::kMaxRegistries + 1;
    EXPECT_EQ(query_seed(oldest), first[oldest]);
    EXPECT_EQ(builds->load(), static_cast<int>(2 * kSeeds));  // still cached
    query_seed(kSeeds + 1);
    EXPECT_EQ(builds->load(), static_cast<int>(2 * kSeeds + 1));
    query_seed(oldest);
    EXPECT_EQ(builds->load(), static_cast<int>(2 * kSeeds + 1));  // survived
    query_seed(oldest + 1);
    EXPECT_EQ(builds->load(), static_cast<int>(2 * kSeeds + 2));  // was evicted
}

TEST(ServiceTest, StatsCountProvenancePerJob) {
    TestRegistry registry;
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.disk_cache_dir = fresh_dir("stats-disk");
    cfg.registry_factory = registry.factory();

    {
        SurveyService svc{cfg};
        ASSERT_TRUE(svc.query(query_request("toy")).ok());  // 3 jobs computed
        // The repeat is a route-key response-cache hit: it never reaches
        // the per-job layer, so job tallies stay at the first query's.
        ASSERT_TRUE(svc.query(query_request("toy")).ok());
        const auto stats = svc.stats();
        EXPECT_EQ(stats.computed, 3u);
        EXPECT_EQ(stats.hot_hits, 0u);
        EXPECT_EQ(stats.response_hits, 1u);
        EXPECT_EQ(stats.disk_cache.stores, 3u);
        EXPECT_EQ(stats.received, 2u);
        EXPECT_EQ(stats.completed, 2u);
    }

    // Fresh service, same disk dir: the disk layer answers.
    SurveyService svc2{cfg};
    ASSERT_TRUE(svc2.query(query_request("toy")).ok());
    const auto stats = svc2.stats();
    EXPECT_EQ(stats.disk_hits, 3u);
    EXPECT_EQ(stats.computed, 0u);
}
