// Metric catalog, percentile summary and result printing for the
// end-to-end benchmark. One table names every metric the benchmark can
// report, with its unit; the benchmark prints the end-to-end set (untraced
// runs) or the per-layer set (traced runs) from it.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Order statistics of one set of timing samples. Percentiles use the
/// nearest-rank definition: the p-th percentile of n sorted samples is
/// the sample at 1-based rank ceil(p/100 * n).
struct Percentiles {
  size_t n = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  /// Samples strictly beyond the p95 rank.
  size_t beyond_p95 = 0;
  /// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least
  /// ten samples beyond its rank, and its value; 0 and 0 when n < 20.
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Summarizes `samples` (any order). Empty input gives all zeros.
Percentiles Summarize(std::vector<double> samples);

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metrics of an untraced run, in BENCHMARK.json `end_to_end` order.
const std::vector<MetricDef>& EndToEndMetrics();
/// The metrics of a traced run, in BENCHMARK.json `per_layer` order.
const std::vector<MetricDef>& PerLayerMetrics();
/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
bool ValidMetricName(const std::string& name);

/// Named metric values of one run plus the correctness tally.
struct Outcome {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  /// Operations that failed or whose answer differed from the oracle.
  uint64_t failed = 0;
  /// Set when a correctness check other than a per-operation answer
  /// failed (e.g. the traced replay diverged from the timed execution).
  std::string fatal;
  bool correct() const { return failed == 0 && fatal.empty(); }
};

/// Human-readable table of `defs` (one "name value unit" line each).
std::string FormatTable(const Outcome& outcome,
                        const std::vector<MetricDef>& defs);

/// The one-line JSON result: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over `defs`. Fails (empty string
/// and `*error` set) when a metric of `defs` is missing or not finite.
std::string FormatJson(const Outcome& outcome,
                       const std::vector<MetricDef>& defs,
                       std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
