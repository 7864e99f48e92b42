#ifndef MGJ_PERFBENCH_WORKLOADS_H_
#define MGJ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "driver/spans.h"

namespace perfbench {

/// One reported number: name, value and unit (directions live in
/// BENCHMARK.json and README.md).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run hands back to main(): the correctness gate's
/// tallies and the metrics of the requested mode.
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable context (tail percentile, sample counts, failures).
  std::vector<std::string> notes;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int host_threads = 1;
};

/// True if `name` is one of paper_join, host_join, serve_fair.
bool IsWorkload(const std::string& name);

/// Timed run, tracing off: every end-to-end metric.
RunOutcome RunTimed(const RunConfig& cfg);

/// Traced run: every per-layer metric; spans land in `log`.
RunOutcome RunTraced(const RunConfig& cfg, SpanLog* log);

}  // namespace perfbench

#endif  // MGJ_PERFBENCH_WORKLOADS_H_
