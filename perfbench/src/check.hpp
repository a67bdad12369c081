// Output checks for the query workloads.
//
// Every request a workload sends is an index into its request pool, and
// the pool's reference payloads are computed during set-up by a
// standalone in-process SurveyService. A response passes only if it
// succeeded and its payload equals the reference byte for byte; anything
// else is a failed operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

/// Operations attempted and failed; safe to bump from many threads.
struct Tally {
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};

    /// Counts one operation; returns `ok` so call sites can chain it.
    bool count(bool ok) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        return ok;
    }
};

/// True when `response` succeeded and carries exactly `reference`.
[[nodiscard]] bool matches(const hsw::service::protocol::Response& response,
                           std::string_view reference);

/// Reference payloads by pool index.
class References {
public:
    explicit References(std::vector<std::string> payloads)
        : payloads_{std::move(payloads)} {}

    [[nodiscard]] bool verify(std::size_t index,
                              const hsw::service::protocol::Response& response) const {
        return index < payloads_.size() && matches(response, payloads_[index]);
    }
    [[nodiscard]] const std::string& payload(std::size_t index) const {
        return payloads_.at(index);
    }

private:
    std::vector<std::string> payloads_;
};

}  // namespace perfbench
