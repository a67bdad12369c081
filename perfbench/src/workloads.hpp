// The benchmark's workloads. survey-cold and query-hot each have a timed
// run (end-to-end metrics, tracing off); every workload, query-fleet too,
// has a traced run that replays its request sequence once per layer rung
// and adds the per-layer metrics.
#pragma once

#include "workload_common.hpp"

namespace perfbench {

[[nodiscard]] Result run_survey_cold(const Options& opt);
[[nodiscard]] Result run_query_hot(const Options& opt);

void trace_survey_cold(const Options& opt, Result& out);
void trace_query_hot(const Options& opt, Result& out);
void trace_query_fleet(const Options& opt, Result& out);

/// Standalone bottom rungs: the event kernel and the node model.
void trace_sim_core(Result& out);

}  // namespace perfbench
