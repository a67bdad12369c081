// hsw_perfbench: the repository's end-to-end benchmark.
//
//   hsw_perfbench --workload survey-cold|query-hot --seed N --seconds S
//                 --trace 0|1 [--root DIR] [--work DIR] [--spans DIR]
//
// With --trace 0 it runs the named workload for S seconds with tracing off
// and reports the end-to-end metrics. With --trace 1 it runs the layer
// ladder instead and reports the per-layer metrics; spans go to
// <spans>/<workload>.jsonl. A traced result carries every per-layer
// metric BENCHMARK.json lists, so the traced run is one and the same for
// every --workload: all three workloads' sequences (query-fleet, which has
// no timed run, included) replayed once per layer rung, plus the
// standalone kernel and node rungs; --workload and --seconds do not change
// it, --seed does. Stdout ends with one JSON line: correct, attempted,
// failed, metrics.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "fingerprint.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload survey-cold|query-hot --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--work DIR] [--spans DIR]\n",
                 argv0);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    std::uint64_t seconds = 0;
    opt.root = ".";
    opt.work = ".bench_build/work";
    opt.spans = ".bench_build/spans";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed" || flag == "--seconds") {
            try {
                (flag == "--seed" ? opt.seed : seconds) = std::stoull(value);
            } catch (const std::exception&) {
                usage(argv[0]);
            }
        } else if (flag == "--trace") {
            opt.trace = value == "1";
        } else if (flag == "--root") {
            opt.root = value;
        } else if (flag == "--work") {
            opt.work = value;
        } else if (flag == "--spans") {
            opt.spans = value;
        } else {
            usage(argv[0]);
        }
    }
    opt.seconds = static_cast<double>(seconds);
    if (argc % 2 != 1 || seconds == 0 ||
        (opt.workload != "survey-cold" && opt.workload != "query-hot")) {
        usage(argv[0]);
    }
    return opt;
}

void print(const Result& r) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct && r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto& m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    try {
        perfbench::reset_dir(opt.work);
        Result result;
        if (!opt.trace) {
            result = opt.workload == "survey-cold" ? perfbench::run_survey_cold(opt)
                                                   : perfbench::run_query_hot(opt);
        } else {
            perfbench::trace_survey_cold(opt, result);
            perfbench::trace_query_hot(opt, result);
            perfbench::trace_query_fleet(opt, result);
            perfbench::trace_sim_core(result);
        }
        std::filesystem::remove_all(opt.work);
        std::printf("fingerprint %s\n", perfbench::fingerprint_json().c_str());
        print(result);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsw_perfbench: %s\n", e.what());
        return 1;
    }
}
