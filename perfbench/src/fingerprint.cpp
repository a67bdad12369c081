#include "fingerprint.hpp"

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_model() {
    std::ifstream in{"/proc/cpuinfo"};
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
        if (line.find(':') != std::string::npos && value != std::string::npos) {
            return line.substr(value);
        }
    }
    return "unknown";
}

/// JSON string literal; the fields here hold no control characters beyond
/// what this escapes.
std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

std::string fingerprint_json() {
    std::ostringstream out;
    out << "{\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"cpu_model\":" << quoted(cpu_model())
        << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
        << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
        << ",\"cxx_flags\":" << quoted(PERFBENCH_CXX_FLAGS) << "}";
    return out.str();
}

}  // namespace perfbench
