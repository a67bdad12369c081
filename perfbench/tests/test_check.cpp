#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check.hpp"

namespace perfbench {
namespace {

namespace proto = hsw::service::protocol;

proto::Response served(std::string payload) {
    proto::Response r;
    r.payload = std::move(payload);
    return r;
}

TEST(Check, CorruptedPayloadIsAFailure) {
    const References refs{std::vector<std::string>{"fig3,csv\n1,2,3\n", "table5 cell"}};
    Tally tally;
    EXPECT_TRUE(tally.count(refs.verify(0, served("fig3,csv\n1,2,3\n"))));

    std::string flipped = "fig3,csv\n1,2,3\n";
    flipped[10] ^= 0x01;
    EXPECT_FALSE(tally.count(refs.verify(0, served(flipped))));
    EXPECT_FALSE(tally.count(refs.verify(0, served("fig3,csv\n1,2,3"))));  // truncated
    EXPECT_FALSE(tally.count(refs.verify(1, served("fig3,csv\n1,2,3\n"))));  // wrong entry

    EXPECT_EQ(tally.attempted.load(), 4u);
    EXPECT_EQ(tally.failed.load(), 3u);
}

TEST(Check, RejectionIsAFailureEvenWithMatchingBytes) {
    const References refs{std::vector<std::string>{"payload"}};
    proto::Response rejected = served("payload");
    rejected.code = proto::ErrorCode::Overloaded;
    EXPECT_FALSE(refs.verify(0, rejected));
}

TEST(Check, SharedPayloadIsCompared) {
    const References refs{std::vector<std::string>{"payload"}};
    proto::Response r;
    r.shared_payload = std::make_shared<const std::string>("payload");
    EXPECT_TRUE(refs.verify(0, r));
    r.shared_payload = std::make_shared<const std::string>("paylaod");
    EXPECT_FALSE(refs.verify(0, r));
}

}  // namespace
}  // namespace perfbench
