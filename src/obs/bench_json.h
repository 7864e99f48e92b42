#ifndef MGJOIN_OBS_BENCH_JSON_H_
#define MGJOIN_OBS_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/report.h"

namespace mgjoin::obs {

/// \brief The machine-readable result of one bench binary
/// ("mgjoin-bench/1" schema): every series the bench prints as text,
/// plus a per-run performance digest, topology and provenance metadata.
///
/// Written as `BENCH_<name>.json` by the bench reporter
/// (bench/bench_util.h, `MGJ_BENCH_JSON=<dir>`), diffed by
/// `tools/bench_compare`. Layout is deterministic: vectors everywhere,
/// one top-level field per line, and the only fields that differ
/// between identical simulated runs (`wall_seconds`, `git_commit`) sit
/// on their own lines so determinism checks can strip them.
struct BenchDoc {
  struct Point {
    double x = 0.0;
    std::string xlabel;  ///< set for categorical axes ("Q3", "direct")
    double y = 0.0;

    /// Key used to match points across two documents.
    std::string Key() const;
  };

  struct Series {
    std::string name;
    std::string unit;
    bool higher_is_better = true;
    std::vector<Point> points;
  };

  /// One run's digest, distilled from a report::RunReport.
  struct Run {
    std::string label;
    double sim_total_ms = 0.0;
    double tuples_per_s = 0.0;  ///< 0 when not applicable
    std::vector<std::pair<std::string, double>> phase_ms;  ///< ranked
    struct Link {
      std::string name;
      double busy_ms = 0.0;
      double utilization = 0.0;
      double mib = 0.0;
      double availability = 1.0;
      double queue_p99_ns = 0.0;
    };
    std::vector<Link> top_links;  ///< busiest first, truncated
    double bisection_bps = 0.0;
    double achieved_wire_bps = 0.0;
  };

  std::string name;  ///< slug ("fig08_bisection_util")
  std::string figure;
  std::string description;
  std::string topology;
  int gpus = 0;
  std::string git_commit = "unknown";
  double wall_seconds = 0.0;
  /// Host wall-time breakdown by phase (name, seconds) from the
  /// `host.*.wall_us` metrics counters, sorted by name. Volatile like
  /// `wall_seconds`: serialized on a single line so determinism checks
  /// can strip it alongside the other machine-dependent fields.
  std::vector<std::pair<std::string, double>> wall_phases;
  std::vector<Series> series;
  std::vector<Run> runs;

  /// Returns the series named `name`, creating it at the back.
  Series& GetSeries(const std::string& name);

  void AddPoint(const std::string& series, double x, double y);
  void AddPoint(const std::string& series, const std::string& xlabel,
                double y);
  /// Declares unit/direction for a series (creates it if needed).
  void SetSeriesMeta(const std::string& series, const std::string& unit,
                     bool higher_is_better);

  std::string ToJson() const;
  static Result<BenchDoc> FromJson(const std::string& text);
};

/// Distills a run report into the digest stored in the bench JSON.
BenchDoc::Run DigestRun(const report::RunReport& report, std::string label,
                        double tuples_per_s, std::size_t max_links = 6);

struct CompareOptions {
  double threshold = 0.05;  ///< relative delta considered a regression
};

struct CompareReport {
  int points_compared = 0;
  int regressions = 0;
  int improvements = 0;
  int missing = 0;  ///< baseline points absent from the candidate
  std::string text;

  bool HasRegression() const { return regressions > 0; }
};

/// Compares `candidate` against `baseline` series-by-series, matching
/// points by x (or xlabel). The regression direction respects each
/// baseline series' `higher_is_better` flag.
CompareReport CompareBenchDocs(const BenchDoc& baseline,
                               const BenchDoc& candidate,
                               const CompareOptions& options);

/// \brief The `bench_compare` CLI:
///   bench_compare <baseline.json> <candidate.json>
///                 [--threshold=5%] [--warn-only]
/// Returns the process exit code (0 ok / 1 regression / 2 usage or
/// I/O error) and appends human-readable output to `*out`.
int BenchCompareMain(const std::vector<std::string>& args,
                     std::string* out);

}  // namespace mgjoin::obs

#endif  // MGJOIN_OBS_BENCH_JSON_H_
