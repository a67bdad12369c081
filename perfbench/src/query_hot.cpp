// query-hot: two connections to one in-process SurveyServer, each sending
// single request/response round trips in a closed loop. Requests are drawn
// by seeded splitmix from a prewarmed working set of quick-tuned point and
// experiment queries that fits the hot cache, so every request is answered
// inline on the reactor from the response cache. This isolates protocol,
// frame_server (the epoll reactor), the service's inline hot path and the
// client; it runs no simulation and writes no cache entry.
#include <sched.h>

#include <memory>
#include <stdexcept>
#include <thread>

#include "service/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace proto = hsw::service::protocol;

constexpr unsigned kConnections = 2;
constexpr unsigned kWorkingSeeds = 16;  // x5 queries per seed
constexpr std::size_t kTraceRequests = 10'000;  // per connection
constexpr std::size_t kPipeline = 32;  // sub-requests per batch frame

struct Rig {
    std::vector<proto::Request> pool;
    std::unique_ptr<References> refs;
    std::unique_ptr<hsw::service::SurveyServer> server;
};

Rig set_up(const Options& opt, Tally& tally) {
    Rig rig;
    rig.pool = working_set(opt.seed, kWorkingSeeds);
    rig.refs = std::make_unique<References>(reference_payloads(rig.pool));
    hsw::service::ServerConfig cfg;
    cfg.reactor_threads = kConnections;  // one event loop per connection
    cfg.handler_threads = 4;             // only the prewarm misses use them
    cfg.max_connections = 8;
    cfg.service.workers = survey_workers();
    rig.server = std::make_unique<hsw::service::SurveyServer>(cfg);
    rig.server->start();
    // Prewarm: the first pass computes every entry, the second must be
    // answered from the hot cache.
    hsw::service::ServiceClient client{"127.0.0.1", rig.server->port()};
    for (const bool hot : {false, true}) {
        const auto responses = client.call_pipelined(rig.pool);
        for (std::size_t i = 0; i < responses.size(); ++i) {
            tally.count(rig.refs->verify(i, responses[i]) &&
                        (!hot || responses[i].source == proto::Source::HotCache));
        }
    }
    return rig;
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to the first `cpus` CPUs it may run on.
void pin_to_first_cpus(unsigned cpus) {
    cpu_set_t allowed;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        throw std::runtime_error{"sched_getaffinity failed"};
    }
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (int cpu = 0; cpu < CPU_SETSIZE && static_cast<unsigned>(CPU_COUNT(&pinned)) < cpus;
         ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) CPU_SET(cpu, &pinned);
    }
    if (::sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
        throw std::runtime_error{"sched_setaffinity failed"};
    }
}

/// Generator state of connection c's request stream.
std::uint64_t stream_state(const Options& opt, unsigned c) {
    return opt.seed ^ (0xA24BAED4963EE407ull * (c + 1));
}

/// The first `count` requests of connection c's stream: working-set indices.
std::vector<std::size_t> stream(const Options& opt, unsigned c, std::size_t pool,
                                std::size_t count) {
    std::uint64_t state = stream_state(opt, c);
    std::vector<std::size_t> out(count);
    for (auto& i : out) i = splitmix64(state) % pool;
    return out;
}

std::vector<std::unique_ptr<hsw::service::ServiceClient>> connect_all(const Rig& rig) {
    std::vector<std::unique_ptr<hsw::service::ServiceClient>> clients;
    for (unsigned c = 0; c < kConnections; ++c) {
        clients.push_back(
            std::make_unique<hsw::service::ServiceClient>("127.0.0.1", rig.server->port()));
    }
    return clients;
}

struct Replay {
    std::vector<double> latency_us;
    double wall_s = 0.0;
    std::size_t completed = 0;
};

/// Runs `per_request(connection, k, request index)` over each connection's
/// stream on its own thread (k = position in that stream). Exceptions are
/// counted as failures and end that connection's replay.
template <typename F>
Replay replay(const std::vector<std::vector<std::size_t>>& streams, Tally& tally,
              F per_request) {
    Replay r;
    std::vector<std::vector<double>> lat(streams.size());
    std::vector<std::thread> threads;
    const std::int64_t t0 = now_ns();
    for (unsigned c = 0; c < streams.size(); ++c) {
        threads.emplace_back([&, c] {
            try {
                lat[c].reserve(streams[c].size());
                for (std::size_t k = 0; k < streams[c].size(); ++k) {
                    const std::int64_t q0 = now_ns();
                    per_request(c, k, streams[c][k]);
                    lat[c].push_back(static_cast<double>(now_ns() - q0) / 1e3);
                }
            } catch (const std::exception&) {
                tally.count(false);
            }
        });
    }
    for (auto& t : threads) t.join();
    r.wall_s = seconds_between(t0, now_ns());
    for (auto& l : lat) {
        r.completed += l.size();
        r.latency_us.insert(r.latency_us.end(), l.begin(), l.end());
    }
    return r;
}

}  // namespace

Result run_query_hot(const Options& opt) {
    // The server and client threads all run on as many CPUs as there are
    // connections. A round trip then wakes its peer on a CPU that is
    // running, not on an idle one the hypervisor has to schedule back in:
    // on a shared 4-vCPU VM those wake-ups made the unpinned median round
    // trip 36 us, not 27, and rose by up to half while other tenants were
    // busy, moving whole runs.
    pin_to_first_cpus(kConnections);
    Result out;
    Tally tally;
    Rig rig;
    const double setup_s = median_setup_s(
        3, [&] { rig = set_up(opt, tally); },
        [&] {
            rig.server->stop();
            rig = {};
        });

    const auto clients = connect_all(rig);
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::vector<Windows> windows(kConnections, Windows{t0, opt.seconds});
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            std::uint64_t state = stream_state(opt, c);
            try {
                for (std::int64_t q1 = t0; q1 < deadline;) {
                    const std::size_t i = splitmix64(state) % rig.pool.size();
                    const std::int64_t q0 = now_ns();
                    const auto response = clients[c]->call(rig.pool[i]);
                    q1 = now_ns();
                    tally.count(rig.refs->verify(i, response));
                    windows[c].record(q1, static_cast<double>(q1 - q0) / 1e3);
                }
            } catch (const std::exception&) {
                tally.count(false);
            }
        });
    }
    for (auto& t : threads) t.join();
    rig.server->stop();

    out.absorb(tally);
    out.add("setup_s", setup_s, "s");
    out.add("latency_us", median_of_windows(windows), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

void trace_query_hot(const Options& opt, Result& out) {
    Tally tally;
    Rig rig = set_up(opt, tally);
    auto& svc = rig.server->service();
    std::vector<std::vector<std::size_t>> streams;
    for (unsigned c = 0; c < kConnections; ++c) {
        streams.push_back(stream(opt, c, rig.pool.size(), kTraceRequests));
    }
    const std::size_t requests = kConnections * kTraceRequests;
    const auto clients = connect_all(rig);
    const auto before = svc.stats();

    // Untraced: the end-to-end reference.
    Replay plain = replay(streams, tally, [&](unsigned c, std::size_t, std::size_t i) {
        tally.count(rig.refs->verify(i, clients[c]->call(rig.pool[i])));
    });

    // Rung 0: the client round trip through the socket and the reactor.
    std::vector<SpanBuffer> rung0;
    for (unsigned c = 0; c < kConnections; ++c) rung0.emplace_back(0, kTraceRequests);
    const Replay traced =
        replay(streams, tally, [&](unsigned c, std::size_t k, std::size_t i) {
            const std::uint32_t id = rung0[c].open("client.call", c * kTraceRequests + k);
            const auto response = clients[c]->call(rig.pool[i]);
            rung0[c].close(id);
            tally.count(rig.refs->verify(i, response));
        });
    const auto after = svc.stats();

    // Rung 1: the same request's protocol and service work in process,
    // without the socket: encode, parse, the inline hot path, the response
    // header the reactor writes, and the client's parse of the frame.
    std::vector<SpanBuffer> rung1;
    for (unsigned c = 0; c < kConnections; ++c) rung1.emplace_back(1, 7 * kTraceRequests);
    replay(streams, tally, [&](unsigned c, std::size_t k, std::size_t i) {
        SpanBuffer& b = rung1[c];
        const std::uint64_t r = c * kTraceRequests + k;
        const std::uint32_t root = b.open("inline", r);
        std::uint32_t id = b.open("protocol.request_encode", r, root);
        const std::string wire = rig.pool[i].encode();
        b.close(id);
        id = b.open("protocol.request_parse", r, root);
        const auto parsed = proto::parse_request(wire);
        b.close(id);
        if (!parsed) throw std::runtime_error{"request did not parse"};
        id = b.open("service.fast", r, root);
        const auto response = svc.try_handle_fast(*parsed);
        b.close(id);
        if (!response) throw std::runtime_error{"hot request left the inline path"};
        id = b.open("protocol.response_encode", r, root);
        std::string frame = response->encode_header();
        b.close(id);
        frame += response->payload_view();
        id = b.open("protocol.response_parse", r, root);
        const auto back = proto::parse_response(frame);
        b.close(id);
        b.close(root);
        tally.count(back && rig.refs->verify(i, *back));
    });

    // The same streams pipelined: v1.3 batch frames of 32 per round trip.
    std::vector<std::vector<std::size_t>> batch_starts(kConnections);
    for (unsigned c = 0; c < kConnections; ++c) {
        for (std::size_t k = 0; k + kPipeline <= kTraceRequests; k += kPipeline) {
            batch_starts[c].push_back(k);
        }
    }
    const Replay pipelined =
        replay(batch_starts, tally, [&](unsigned c, std::size_t, std::size_t k) {
            std::vector<proto::Request> batch;
            for (std::size_t j = k; j < k + kPipeline; ++j) {
                batch.push_back(rig.pool[streams[c][j]]);
            }
            const auto responses = clients[c]->call_pipelined(batch);
            for (std::size_t j = 0; j < kPipeline; ++j) {
                tally.count(j < responses.size() &&
                            rig.refs->verify(streams[c][k + j], responses[j]));
            }
        });

    // SurveyService::query, the blocking entry point, on the same stream.
    std::vector<double> query_ns;
    for (const auto& s : streams) {
        for (const std::size_t i : s) {
            const std::int64_t q0 = now_ns();
            const auto result = svc.query(rig.pool[i]);
            query_ns.push_back(static_cast<double>(now_ns() - q0));
            tally.count(result.ok() && *result.payload == rig.refs->payload(i));
        }
    }
    rig.server->stop();

    Trace trace;
    for (const auto& b : rung0) trace.merge(b);
    for (const auto& b : rung1) trace.merge(b);
    trace.link_rungs();
    write_spans(opt, "query-hot", trace);
    out.absorb(tally);

    const auto layers = trace.layer_times();
    auto mean_ns = [&](const char* name) {
        const auto it = layers.find(name);
        return it == layers.end() || it->second.spans == 0
                   ? 0.0
                   : static_cast<double>(it->second.total_ns) / it->second.spans;
    };
    const auto& call = layers.at("client.call");
    out.add("client.call_us", mean_ns("client.call") / 1e3, "us");
    out.add("frame_server.residual_us",
            static_cast<double>(call.self_total_ns) / call.spans / 1e3, "us");
    const double pipelined_us =
        median(pipelined.latency_us) / static_cast<double>(kPipeline);
    out.add("client.pipelined_call_us", pipelined_us, "us");
    out.add("frame_server.pipelined_residual_us", pipelined_us - mean_ns("inline") / 1e3,
            "us");
    out.add("protocol.request_encode_ns", mean_ns("protocol.request_encode"), "ns");
    out.add("protocol.request_parse_ns", mean_ns("protocol.request_parse"), "ns");
    out.add("protocol.response_encode_ns", mean_ns("protocol.response_encode"), "ns");
    out.add("protocol.response_parse_ns", mean_ns("protocol.response_parse"), "ns");
    out.add("service.fast_ns", mean_ns("service.fast"), "ns");
    out.add("service.query_ns", median(query_ns), "ns");
    const double received = static_cast<double>(after.received - before.received);
    out.add("service.response_hit_ratio",
            static_cast<double>(after.response_hits - before.response_hits) / received,
            "ratio");

    out.add("query-hot.throughput_rps", static_cast<double>(plain.completed) / plain.wall_s,
            "1/s");
    out.add("query-hot.latency_p99_us", supported_percentile(plain.latency_us, 99.0), "us");
    out.add("query-hot.latency_samples", static_cast<double>(plain.latency_us.size()), "count");
    const double e2e_ns = mean(plain.latency_us) * 1e3;
    out.add("trace.query-hot.residual_share",
            (e2e_ns - mean_self_ns(trace, requests)) / e2e_ns, "ratio");
    out.add("trace.query-hot.overhead_share",
            1.0 - (traced.completed / traced.wall_s) / (plain.completed / plain.wall_s),
            "ratio");
}

}  // namespace perfbench
