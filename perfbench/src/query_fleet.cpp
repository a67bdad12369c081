// query-fleet: two connections send v1.3 batch frames of 32 queries, in a
// closed loop, to an in-process RouterServer that fronts two SurveyServer
// shards over TcpTransport. Each shard's hot-cache budget is below its
// slice of the working set, so a stable share of requests falls to the
// shard's disk cache (ResultCache probe plus SHA-256 verify, then hot-cache
// insert and eviction), and every 16th batch carries a fresh Fig. 4 spec
// that computes and stores. This is the workload that runs the router, the
// batch path, cache inserts and evictions, and disk stores.
//
// It runs only as a layer ladder in the traced run: its timed figures do
// not yet repeat within the largest bound on a shared host, so it has no
// timed run and gates nothing.
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "engine/result_cache.hpp"
#include "engine/sha256.hpp"
#include "engine/survey_experiments.hpp"
#include "router/router.hpp"
#include "router/server.hpp"
#include "router/upstream.hpp"
#include "service/hot_cache.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace proto = hsw::service::protocol;
using hsw::service::ServiceClient;

constexpr unsigned kConnections = 2;
constexpr std::size_t kBatch = 32;
constexpr unsigned kShards = 2;
constexpr unsigned kWorkingSeeds = 32;  // x5 queries per seed
/// Per-shard hot-cache bytes as a share of the shard's slice of the
/// working set's payload bytes.
constexpr double kBudgetShare = 0.5;
/// Shard ports are fixed because the consistent-hash ring hashes shard
/// addresses: the same ports give the same key partition on every run.
constexpr std::uint16_t kShardPorts[][kShards] = {{47301, 47302}, {47311, 47312},
                                                  {47321, 47322}};
constexpr std::size_t kTraceBatches = 600;    // per connection
/// Hot-cache budget of the fleet the router hop is measured on: the whole
/// working set fits.
constexpr std::size_t kHopBudget = 64u << 20;
constexpr std::size_t kTraceFreshEvery = 16;  // batches per fresh spec

struct Pools {
    std::vector<proto::Request> requests;  // working set, then fresh specs
    std::size_t working = 0;
    std::unique_ptr<References> refs;
    std::size_t budget = 0;  // per-shard hot-cache bytes
};

Pools make_pools(const Options& opt, std::size_t fresh) {
    Pools p;
    p.requests = working_set(opt.seed, kWorkingSeeds);
    p.working = p.requests.size();
    for (auto& r : fresh_fig4(opt.seed, fresh)) p.requests.push_back(std::move(r));
    p.refs = std::make_unique<References>(reference_payloads(p.requests));
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < p.working; ++i) bytes += p.refs->payload(i).size();
    p.budget = static_cast<std::size_t>(kBudgetShare * static_cast<double>(bytes) / kShards);
    return p;
}

struct Fleet {
    std::vector<std::unique_ptr<hsw::service::SurveyServer>> shards;
    hsw::router::TcpTransport transport;
    std::unique_ptr<hsw::router::Router> router;
    std::unique_ptr<hsw::router::RouterServer> front;

    Fleet() = default;
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;
    ~Fleet() {
        if (front) front->stop();
        if (router) router->stop();
        for (auto& s : shards) s->stop();
    }
};

std::unique_ptr<hsw::service::SurveyServer> start_shard(std::size_t budget,
                                                        const std::filesystem::path& disk,
                                                        unsigned index) {
    for (const auto& ports : kShardPorts) {
        hsw::service::ServerConfig cfg;
        cfg.port = ports[index];
        cfg.reactor_threads = 1;
        cfg.handler_threads = 2;
        cfg.max_connections = 8;
        cfg.service.workers = 1;
        cfg.service.hot_cache.max_bytes = budget;
        cfg.service.hot_cache.shards = 1;  // the budget is the budget
        cfg.service.disk_cache_dir = disk;
        try {
            auto shard = std::make_unique<hsw::service::SurveyServer>(cfg);
            shard->start();
            return shard;
        } catch (const std::runtime_error&) {
            // port taken: try the next fixed pair
        }
    }
    throw std::runtime_error{"no fixed shard port could be bound"};
}

std::unique_ptr<Fleet> start_fleet(const Pools& p, std::size_t budget,
                                   const std::filesystem::path& disk_root, Tally& tally) {
    reset_dir(disk_root);
    auto fleet = std::make_unique<Fleet>();
    std::vector<hsw::router::ShardEndpoint> endpoints;
    for (unsigned i = 0; i < kShards; ++i) {
        fleet->shards.push_back(
            start_shard(budget, disk_root / ("shard" + std::to_string(i)), i));
        endpoints.push_back({"shard" + std::to_string(i), "127.0.0.1",
                             fleet->shards.back()->port()});
    }
    hsw::router::RouterConfig rc;
    rc.probe_interval = std::chrono::milliseconds{0};
    rc.max_idle_per_shard = 4;
    fleet->router = std::make_unique<hsw::router::Router>(
        hsw::router::FleetMap{std::move(endpoints)}, fleet->transport, rc);
    hsw::router::RouterServerConfig fc;
    fc.max_connections = 4;
    fleet->front = std::make_unique<hsw::router::RouterServer>(*fleet->router, fc);
    fleet->front->start();
    // Prewarm through the router: every working-set spec computes on its
    // owning shard into that shard's disk cache and, budget permitting,
    // its hot cache.
    ServiceClient client{"127.0.0.1", fleet->front->port()};
    for (std::size_t base = 0; base < p.working; base += kBatch) {
        const std::size_t end = std::min(p.working, base + kBatch);
        const std::vector<proto::Request> batch(
            p.requests.begin() + static_cast<std::ptrdiff_t>(base),
            p.requests.begin() + static_cast<std::ptrdiff_t>(end));
        const auto responses = client.call_pipelined(batch);
        for (std::size_t i = base; i < end; ++i) {
            tally.count(p.refs->verify(i, responses.at(i - base)));
        }
    }
    return fleet;
}

std::vector<proto::Request> requests_of(const Pools& p, const std::vector<std::size_t>& indices) {
    std::vector<proto::Request> batch;
    batch.reserve(indices.size());
    for (const std::size_t i : indices) batch.push_back(p.requests[i]);
    return batch;
}

/// Checks the responses to the pool requests `indices`, one by one.
void check(const Pools& p, const std::vector<std::size_t>& indices,
           const std::vector<proto::Response>& responses, Tally& tally) {
    for (std::size_t j = 0; j < indices.size(); ++j) {
        tally.count(j < responses.size() && p.refs->verify(indices[j], responses[j]));
    }
}

/// Sends one batch and checks every response; returns the round trip in ns.
std::int64_t send_batch(ServiceClient& client, const Pools& p,
                        const std::vector<std::size_t>& indices, Tally& tally) {
    const auto batch = requests_of(p, indices);
    const std::int64_t q0 = now_ns();
    const auto responses = client.call_pipelined(batch);
    const std::int64_t rtt = now_ns() - q0;
    check(p, indices, responses, tally);
    return rtt;
}

void draw_batch(std::uint64_t& state, std::size_t working, std::vector<std::size_t>& out) {
    out.resize(kBatch);
    for (auto& i : out) i = splitmix64(state) % working;
}

std::uint64_t stream_state(const Options& opt, unsigned c) {
    return opt.seed ^ (0xD1B54A32D192ED03ull * (c + 1));
}

struct Counters {
    hsw::router::RouterStats router;
    std::uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
    std::uint64_t computed = 0, coalesced = 0, stores = 0;
};

Counters snapshot(Fleet& fleet) {
    Counters c;
    c.router = fleet.router->stats();
    for (auto& shard : fleet.shards) {
        const auto s = shard->service().stats();
        c.hits += s.hot_cache.hits;
        c.misses += s.hot_cache.misses;
        c.insertions += s.hot_cache.insertions;
        c.evictions += s.hot_cache.evictions;
        c.computed += s.computed;
        c.coalesced += s.coalesced;
        c.stores += s.disk_cache.stores;
    }
    return c;
}

/// The shard the router sends each request to: the first replica of its
/// route key (every shard is up).
std::vector<std::size_t> owners(const Fleet& fleet, const std::vector<std::string>& route_keys) {
    std::vector<std::size_t> out;
    for (const auto& key : route_keys) {
        out.push_back(fleet.router->fleet().replica_set(key).front());
    }
    return out;
}

/// A batch's request indices grouped by owning shard, in shard order --
/// the order Router::handle_batch forwards its groups in.
std::map<std::size_t, std::vector<std::size_t>> by_owner(
    const std::vector<std::size_t>& indices, const std::vector<std::size_t>& owner) {
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (const std::size_t i : indices) groups[owner[i]].push_back(i);
    return groups;
}

/// The engine jobs behind a query, as the service resolves them.
std::vector<hsw::engine::ExperimentSpec> job_specs(const proto::Request& req) {
    hsw::engine::SurveyTuning tuning = hsw::engine::SurveyTuning::quick();
    tuning.seed = req.seed;
    tuning.audit = req.audit;
    const auto experiments = hsw::engine::survey_experiments(tuning);
    std::vector<hsw::engine::ExperimentSpec> out;
    for (const auto& job : hsw::engine::find_experiment(experiments, req.experiment)->jobs) {
        if (req.point == "*" || job.spec.point == req.point) out.push_back(job.spec);
    }
    return out;
}

}  // namespace

void trace_query_fleet(const Options& opt, Result& out) {
    Tally tally;
    const std::size_t fresh_per_conn = (kTraceBatches + kTraceFreshEvery - 1) / kTraceFreshEvery;
    const Pools pools = make_pools(opt, kConnections * fresh_per_conn);

    // The fixed sequence every rung replays: batch k of connection c
    // carries a fresh spec when k is a multiple of kTraceFreshEvery.
    std::vector<std::vector<std::vector<std::size_t>>> seq(kConnections);
    for (unsigned c = 0; c < kConnections; ++c) {
        std::uint64_t state = stream_state(opt, c);
        seq[c].resize(kTraceBatches);
        for (std::size_t k = 0; k < kTraceBatches; ++k) {
            draw_batch(state, pools.working, seq[c][k]);
            if (k % kTraceFreshEvery == 0) {
                seq[c][k][0] = pools.working + c * fresh_per_conn + k / kTraceFreshEvery;
            }
        }
    }
    const std::size_t batches = kConnections * kTraceBatches;
    std::vector<std::string> route_keys;
    for (const auto& r : pools.requests) route_keys.push_back(proto::route_key(r));

    struct Conns {
        std::unique_ptr<ServiceClient> front;
        std::vector<std::unique_ptr<ServiceClient>> shard;
    };
    struct Rung {
        std::vector<SpanBuffer> spans;
        double wall_s = 0.0;
        std::vector<double> rtt_us;
        Counters before, after;
    };
    std::vector<std::size_t> owner;
    // Every rung starts from a freshly built and prewarmed fleet, so each
    // replays the same sequence from the same state.
    auto run_rung = [&](std::uint32_t rung, auto per_batch) {
        Rung r;
        auto fleet = start_fleet(pools, pools.budget, opt.work / "fleet", tally);
        owner = owners(*fleet, route_keys);
        for (unsigned c = 0; c < kConnections; ++c) r.spans.emplace_back(rung, 40 * kTraceBatches);
        std::vector<std::vector<double>> rtt(kConnections);
        r.before = snapshot(*fleet);
        std::vector<std::thread> threads;
        const std::int64_t t0 = now_ns();
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    Conns conns;
                    conns.front =
                        std::make_unique<ServiceClient>("127.0.0.1", fleet->front->port());
                    for (auto& shard : fleet->shards) {
                        conns.shard.push_back(
                            std::make_unique<ServiceClient>("127.0.0.1", shard->port()));
                    }
                    for (std::size_t k = 0; k < kTraceBatches; ++k) {
                        const std::int64_t q0 = now_ns();
                        per_batch(*fleet, conns, r.spans[c], c * kTraceBatches + k, seq[c][k]);
                        rtt[c].push_back(static_cast<double>(now_ns() - q0) / 1e3);
                    }
                } catch (const std::exception&) {
                    tally.count(false);
                }
            });
        }
        for (auto& t : threads) t.join();
        r.wall_s = seconds_between(t0, now_ns());
        r.after = snapshot(*fleet);
        for (const auto& v : rtt) r.rtt_us.insert(r.rtt_us.end(), v.begin(), v.end());
        return r;
    };

    // Untraced: the end-to-end reference.
    Rung plain = run_rung(0, [&](Fleet&, Conns& conns, SpanBuffer&, std::uint64_t,
                                 const std::vector<std::size_t>& indices) {
        (void)send_batch(*conns.front, pools, indices, tally);
    });
    // Rung 0: the client's batch round trip through the router's socket.
    Rung rung0 = run_rung(0, [&](Fleet&, Conns& conns, SpanBuffer& b, std::uint64_t r,
                                 const std::vector<std::size_t>& indices) {
        const auto batch = requests_of(pools, indices);
        const std::uint32_t id = b.open("client.batch", r);
        const auto responses = conns.front->call_pipelined(batch);
        b.close(id);
        check(pools, indices, responses, tally);
    });
    // Rung 1: Router::handle_batch in process, without the front socket.
    Rung rung1 = run_rung(1, [&](Fleet& fleet, Conns&, SpanBuffer& b, std::uint64_t r,
                                 const std::vector<std::size_t>& indices) {
        const auto batch = requests_of(pools, indices);
        const std::uint32_t id = b.open("router.handle_batch", r);
        const auto responses = fleet.router->handle_batch(batch);
        b.close(id);
        check(pools, indices, responses, tally);
    });
    // Rung 2: each owning shard's group pipelined straight to that shard,
    // as the router forwards it (groups in shard order, one after another).
    Rung rung2 = run_rung(2, [&](Fleet&, Conns& conns, SpanBuffer& b, std::uint64_t r,
                                 const std::vector<std::size_t>& indices) {
        const auto groups = by_owner(indices, owner);
        std::vector<std::pair<const std::vector<std::size_t>*, std::vector<proto::Request>>>
            sends;
        for (const auto& [shard, group] : groups) {
            sends.emplace_back(&group, requests_of(pools, group));
        }
        std::vector<std::vector<proto::Response>> responses;
        const std::uint32_t id = b.open("shard.direct", r);
        for (const auto& [group, batch] : sends) {
            responses.push_back(conns.shard.at(owner[group->front()])->call_pipelined(batch));
        }
        b.close(id);
        for (std::size_t g = 0; g < sends.size(); ++g) {
            check(pools, *sends[g].first, responses[g], tally);
        }
    });
    // Rung 3: SurveyService::query on the owning shard, per sub-request.
    // Groups go shard by shard, as the router sends them, and a group's
    // sub-requests run on as many threads as a shard has handlers, as the
    // shard serves them; each group is one span. Per-query times are kept
    // by where the payload came from.
    std::mutex query_lock;
    std::map<proto::Source, std::vector<double>> query_us;
    Rung rung3 = run_rung(3, [&](Fleet& fleet, Conns&, SpanBuffer& b, std::uint64_t r,
                                 const std::vector<std::size_t>& indices) {
        const auto groups = by_owner(indices, owner);
        const std::uint32_t root = b.open("service.batch", r);
        for (const auto& [shard, group] : groups) {
            auto& svc = fleet.shards.at(shard)->service();
            std::atomic<std::size_t> next{0};
            auto work = [&] {
                for (std::size_t j = next++; j < group.size(); j = next++) {
                    const std::int64_t q0 = now_ns();
                    const auto result = svc.query(pools.requests[group[j]]);
                    const double us = static_cast<double>(now_ns() - q0) / 1e3;
                    tally.count(result.ok() &&
                                *result.payload == pools.refs->payload(group[j]));
                    const std::lock_guard lock{query_lock};
                    query_us[result.source].push_back(us);
                }
            };
            const std::uint32_t id = b.open("service.group", r, root);
            std::thread helper{work};
            work();
            helper.join();
            b.close(id);
        }
        b.close(root);
    });

    Trace trace;
    for (const Rung* rung : {&rung0, &rung1, &rung2, &rung3}) {
        for (const auto& b : rung->spans) trace.merge(b);
    }
    trace.link_rungs();
    write_spans(opt, "query-fleet", trace);

    const auto layers = trace.layer_times();
    auto mean_us = [&](const char* name) {
        const auto it = layers.find(name);
        return it == layers.end() || it->second.spans == 0
                   ? 0.0
                   : static_cast<double>(it->second.total_ns) / it->second.spans / 1e3;
    };
    auto self_us = [&](const char* name) {
        const auto& l = layers.at(name);
        return static_cast<double>(l.self_total_ns) / l.spans / 1e3;
    };
    out.add("client.batch_rtt_us", mean_us("client.batch"), "us");
    out.add("router.handle_batch_us", mean_us("router.handle_batch"), "us");
    out.add("shard.direct_us", mean_us("shard.direct"), "us");
    out.add("shard.residual_us", self_us("shard.direct"), "us");
    auto query_mean_us = [&](proto::Source source) {
        const auto& v = query_us[source];
        double sum = 0.0;
        for (const double x : v) sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    out.add("service.query_us.hot", query_mean_us(proto::Source::HotCache), "us");
    out.add("service.query_us.disk", query_mean_us(proto::Source::DiskCache), "us");
    out.add("service.query_us.computed", query_mean_us(proto::Source::Computed), "us");
    const double answered = static_cast<double>(query_us[proto::Source::HotCache].size() +
                                                query_us[proto::Source::DiskCache].size() +
                                                query_us[proto::Source::Computed].size());
    out.add("service.disk_share",
            static_cast<double>(query_us[proto::Source::DiskCache].size()) / answered,
            "ratio");

    // router.hop_us: Router::handle_batch minus the same groups pipelined
    // straight to their shards, paired batch by batch (alternating which
    // goes first) on a fleet whose hot caches hold the whole working set.
    // Every request hits, so neither call changes what the other sees, and
    // the pair shares its moment's machine noise.
    {
        auto fleet = start_fleet(pools, kHopBudget, opt.work / "fleet-hop", tally);
        const std::vector<std::size_t> owner = owners(*fleet, route_keys);
        std::vector<std::vector<double>> hop_us(kConnections);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    std::vector<std::unique_ptr<ServiceClient>> direct;
                    for (auto& shard : fleet->shards) {
                        direct.push_back(
                            std::make_unique<ServiceClient>("127.0.0.1", shard->port()));
                    }
                    for (std::size_t k = 0; k < kTraceBatches; ++k) {
                        std::vector<std::size_t> indices = seq[c][k];
                        for (auto& i : indices) i %= pools.working;  // no fresh spec
                        const auto batch = requests_of(pools, indices);
                        const auto groups = by_owner(indices, owner);
                        std::vector<std::pair<std::size_t, std::vector<proto::Request>>> sends;
                        for (const auto& [shard, group] : groups) {
                            sends.emplace_back(shard, requests_of(pools, group));
                        }
                        auto routed = [&] {
                            const std::int64_t t = now_ns();
                            check(pools, indices, fleet->router->handle_batch(batch), tally);
                            return now_ns() - t;
                        };
                        auto straight = [&] {
                            std::int64_t ns = 0;
                            for (const auto& [shard, group] : sends) {
                                const std::int64_t t = now_ns();
                                const auto responses = direct.at(shard)->call_pipelined(group);
                                ns += now_ns() - t;
                                tally.count(responses.size() == group.size());
                            }
                            return ns;
                        };
                        const std::int64_t a = k % 2 ? routed() : straight();
                        const std::int64_t b = k % 2 ? straight() : routed();
                        hop_us[c].push_back(static_cast<double>(k % 2 ? a - b : b - a) / 1e3);
                    }
                } catch (const std::exception&) {
                    tally.count(false);
                }
            });
        }
        for (auto& t : threads) t.join();
        std::vector<double> all;
        for (const auto& v : hop_us) all.insert(all.end(), v.begin(), v.end());
        out.add("router.hop_us", median(all), "us");
    }

    // Counters over rung 0, the real path.
    const Counters& a = rung0.before;
    const Counters& z = rung0.after;
    const double queries = static_cast<double>(z.router.queries - a.router.queries);
    out.add("router.forwarded_per_query",
            static_cast<double>(z.router.forwarded - a.router.forwarded) / queries, "ratio");
    out.add("router.failovers", static_cast<double>(z.router.failovers - a.router.failovers),
            "count");
    const double lookups = static_cast<double>((z.hits - a.hits) + (z.misses - a.misses));
    out.add("hot_cache.hit_ratio", static_cast<double>(z.hits - a.hits) / lookups, "ratio");
    out.add("hot_cache.insertions", static_cast<double>(z.insertions - a.insertions), "count");
    out.add("hot_cache.evictions", static_cast<double>(z.evictions - a.evictions), "count");
    out.add("service.computed", static_cast<double>(z.computed - a.computed), "count");
    out.add("service.coalesced", static_cast<double>(z.coalesced - a.coalesced), "count");
    out.add("engine.result_cache.stores", static_cast<double>(z.stores - a.stores), "count");

    // Standalone: ResultCache loads of every job behind the pool, from the
    // shard directories the last rung left behind.
    std::vector<std::vector<hsw::engine::ExperimentSpec>> specs;
    for (const auto& r : pools.requests) specs.push_back(job_specs(r));
    std::vector<std::vector<std::shared_ptr<const std::string>>> job_payloads(specs.size());
    std::vector<double> load_us;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const hsw::engine::ResultCache disk{opt.work / "fleet" /
                                            ("shard" + std::to_string(owner[i]))};
        for (const auto& spec : specs[i]) {
            const std::int64_t q0 = now_ns();
            auto payload = disk.load(spec);
            load_us.push_back(static_cast<double>(now_ns() - q0) / 1e3);
            tally.count(payload.has_value());
            job_payloads[i].push_back(
                std::make_shared<const std::string>(payload.value_or(std::string{})));
        }
    }
    out.add("engine.result_cache.load_us", median(load_us), "us");

    // Standalone: the service's warm-disk path with no hot cache, one query
    // at a time, over shard 0's directory -- the same layer as the fleet's
    // disk share, without the fleet around it.
    {
        hsw::service::ServiceConfig cfg;
        cfg.workers = 1;
        cfg.hot_cache.max_bytes = 0;
        cfg.disk_cache_dir = opt.work / "fleet" / "shard0";
        hsw::service::SurveyService svc{cfg};
        // A whole-experiment query ("*") also re-assembles its artifacts.
        std::vector<double> point_us, assembled_us;
        for (std::size_t i = 0; i < pools.working; ++i) {
            if (owner[i] != 0) continue;
            const std::int64_t q0 = now_ns();
            const auto result = svc.query(pools.requests[i]);
            (pools.requests[i].point == "*" ? assembled_us : point_us)
                .push_back(static_cast<double>(now_ns() - q0) / 1e3);
            tally.count(result.ok() && result.source == proto::Source::DiskCache &&
                        *result.payload == pools.refs->payload(i));
        }
        out.add("service.warm_disk_query_us.point", median(point_us), "us");
        out.add("service.warm_disk_query_us.assembled", median(assembled_us), "us");
    }

    // Standalone: each shard's hot cache at the shard budget, replaying the
    // rung-0 key sequence the way a shard does -- response key first; on a
    // miss, each job key, inserting the misses, then the response.
    std::vector<double> lookup_ns, insert_ns;
    for (unsigned shard = 0; shard < kShards; ++shard) {
        hsw::service::HotCache cache{{pools.budget, 1}};
        auto serve = [&](std::size_t i, bool timed) {
            auto timed_lookup = [&](const std::string& key) {
                const std::int64_t q0 = now_ns();
                auto v = cache.lookup(key);
                if (timed) lookup_ns.push_back(static_cast<double>(now_ns() - q0));
                return v;
            };
            auto timed_insert = [&](const std::string& key,
                                    std::shared_ptr<const std::string> value) {
                const std::int64_t q0 = now_ns();
                cache.insert_shared(key, std::move(value));
                if (timed) insert_ns.push_back(static_cast<double>(now_ns() - q0));
            };
            if (timed_lookup(route_keys[i])) return;
            for (std::size_t j = 0; j < specs[i].size(); ++j) {
                const std::string key = specs[i][j].hash_hex();
                if (!timed_lookup(key)) timed_insert(key, job_payloads[i][j]);
            }
            timed_insert(route_keys[i], std::make_shared<const std::string>(
                                            pools.refs->payload(i)));
        };
        for (std::size_t i = 0; i < pools.working; ++i) {
            if (owner[i] == shard) serve(i, false);  // the prewarm
        }
        for (std::size_t k = 0; k < kTraceBatches; ++k) {
            for (unsigned c = 0; c < kConnections; ++c) {
                for (const std::size_t i : seq[c][k]) {
                    if (owner[i] == shard) serve(i, true);
                }
            }
        }
    }
    out.add("hot_cache.lookup_ns", median(lookup_ns), "ns");
    out.add("hot_cache.insert_ns", median(insert_ns), "ns");

    // Standalone: SHA-256 over the working set's payload bytes.
    std::string bytes;
    for (std::size_t i = 0; i < pools.working; ++i) bytes += pools.refs->payload(i);
    std::size_t hashed = 0;
    const std::int64_t h0 = now_ns();
    std::int64_t h1 = h0;
    for (; h1 - h0 < 200'000'000; h1 = now_ns()) {
        (void)hsw::engine::sha256(bytes);
        hashed += bytes.size();
    }
    out.add("engine.sha256_mb_per_s", static_cast<double>(hashed) / 1e6 / seconds_between(h0, h1),
            "MB/s");

    out.absorb(tally);
    // A batch's requests share its round trip, so the tail is read over
    // batches and the sample count is in requests.
    out.add("query-fleet.throughput_rps",
            static_cast<double>(plain.rtt_us.size() * kBatch) / plain.wall_s, "1/s");
    out.add("query-fleet.latency_p50_us", median(plain.rtt_us), "us");
    out.add("query-fleet.latency_p99_us", supported_percentile(plain.rtt_us, 99.0), "us");
    out.add("query-fleet.latency_samples", static_cast<double>(plain.rtt_us.size() * kBatch),
            "count");
    const double e2e_ns = mean(plain.rtt_us) * 1e3;
    out.add("trace.query-fleet.residual_share",
            (e2e_ns - mean_self_ns(trace, batches)) / e2e_ns, "ratio");
    out.add("trace.query-fleet.overhead_share",
            1.0 - (static_cast<double>(rung0.rtt_us.size()) / rung0.wall_s) /
                      (static_cast<double>(plain.rtt_us.size()) / plain.wall_s),
            "ratio");
}

}  // namespace perfbench
