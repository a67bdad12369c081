#include "check.hpp"

namespace perfbench {

bool matches(const hsw::service::protocol::Response& response,
             std::string_view reference) {
    return response.ok() && response.payload_view() == reference;
}

}  // namespace perfbench
