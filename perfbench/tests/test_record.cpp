#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "record.hpp"
#include "util/minijson.hpp"

namespace perfbench {
namespace {

const Span& by_name(const Trace& t, const std::string& name, std::uint32_t rung) {
    for (const Span& s : t.spans()) {
        if (name == s.name && s.rung == rung) return s;
    }
    throw std::runtime_error{"no span " + name};
}

TEST(SelfTime, ParentMinusTheUnionOfItsChildren) {
    SpanBuffer b{0};
    const auto parent = b.add("parent", 0, 0, 0, 100);
    b.add("a", 0, parent, 10, 30);
    b.add("b", 0, parent, 20, 50);   // overlaps a: [10, 50] counts once
    b.add("c", 0, parent, 90, 120);  // clipped to the parent's end: 10
    Trace t;
    t.merge(b);
    EXPECT_EQ(t.self_ns(by_name(t, "parent", 0)), 100 - 40 - 10);
    EXPECT_EQ(t.self_ns(by_name(t, "a", 0)), 20);
}

TEST(SelfTime, ReplayedChildCoversItsDurationNotItsInterval) {
    // Rung 1 replays the work below rung 0's span at a later time: its
    // duration, not its (disjoint) interval, is what the parent covered.
    SpanBuffer outer{0};
    outer.add("client.call", 7, 0, 0, 50);
    SpanBuffer inner{1};
    const auto root = inner.add("inline", 7, 0, 1000, 1030);
    inner.add("encode", 7, root, 1000, 1010);
    Trace t;
    t.merge(outer);
    t.merge(inner);
    t.link_rungs();
    EXPECT_EQ(t.self_ns(by_name(t, "client.call", 0)), 50 - 30);
    EXPECT_EQ(t.self_ns(by_name(t, "inline", 1)), 30 - 10);
    // Replay noise can make the outer self time negative; it is kept.
    SpanBuffer slow{1};
    slow.add("inline", 8, 0, 0, 60);
    SpanBuffer fast{0};
    fast.add("client.call", 8, 0, 0, 50);
    Trace u;
    u.merge(fast);
    u.merge(slow);
    u.link_rungs();
    EXPECT_EQ(u.self_ns(by_name(u, "client.call", 0)), -10);
}

TEST(SelfTime, LayerTimesSumToTheOutermostDuration) {
    SpanBuffer r0{0}, r1{1};
    for (std::uint64_t req = 0; req < 3; ++req) {
        r0.add("client.call", req, 0, 0, 100 + static_cast<std::int64_t>(req));
        const auto root = r1.add("inline", req, 0, 500, 560);
        r1.add("parse", req, root, 500, 520);
        r1.add("serve", req, root, 530, 555);
    }
    Trace t;
    t.merge(r0);
    t.merge(r1);
    t.link_rungs();
    std::int64_t self = 0;
    for (const auto& [name, layer] : t.layer_times()) self += layer.self_total_ns;
    EXPECT_EQ(self, 100 + 101 + 102);
    EXPECT_EQ(t.layer_times().at("client.call").self_total_ns, 3 * 40 + 3);
}

TEST(SpanWriter, OneParentLinkedTreePerRequest) {
    SpanBuffer r0{0}, r1a{1}, r1b{1};
    for (std::uint64_t req = 0; req < 4; ++req) {
        r0.add("outer", req, 0, 0, 10);
        SpanBuffer& r1 = req % 2 ? r1a : r1b;  // two replay threads
        const auto root = r1.open("inner", req);
        r1.close(r1.open("leaf", req, root));
        r1.close(root);
    }
    Trace t;
    t.merge(r0);
    t.merge(r1a);
    t.merge(r1b);
    t.link_rungs();
    std::ostringstream out;
    t.write_jsonl(out);

    std::map<double, const hsw::util::json::Value*> by_id;
    std::vector<hsw::util::json::Value> rows;
    std::istringstream in{out.str()};
    for (std::string line; std::getline(in, line);) {
        auto v = hsw::util::json::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        rows.push_back(std::move(*v));
    }
    ASSERT_EQ(rows.size(), 12u);
    for (const auto& row : rows) by_id[row.number_or("id", -1)] = &row;
    std::map<double, int> roots_per_request;
    for (const auto& row : rows) {
        const double request = row.number_or("request", -1);
        double parent = row.number_or("parent", -1);
        if (parent == 0) ++roots_per_request[request];
        // Walking parents stays inside the request and ends at a rung-0 root.
        const hsw::util::json::Value* at = &row;
        while (parent != 0) {
            ASSERT_EQ(by_id.count(parent), 1u);
            at = by_id.at(parent);
            ASSERT_EQ(at->number_or("request", -1), request);
            parent = at->number_or("parent", -1);
        }
        EXPECT_EQ(at->number_or("rung", -1), 0);
    }
    ASSERT_EQ(roots_per_request.size(), 4u);
    for (const auto& [request, roots] : roots_per_request) EXPECT_EQ(roots, 1) << request;
}

}  // namespace
}  // namespace perfbench
