// Self-test of the benchmark's reporting: the percentile helper and the
// metric catalog. Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "report.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: order-free
  return v;
}

void TestPercentiles() {
  const perfbench::Percentiles empty = perfbench::Summarize({});
  EXPECT(empty.n == 0 && empty.p50 == 0.0 && empty.tail_pct == 0.0);

  // 1..200: p50 is rank 100, p95 is rank 190 with exactly 10 beyond it,
  // so p95 is the highest ladder percentile with >= 10 samples beyond.
  const perfbench::Percentiles p = perfbench::Summarize(Range(200));
  EXPECT(p.n == 200);
  EXPECT(p.p50 == 100.0);
  EXPECT(p.p95 == 190.0);
  EXPECT(p.beyond_p95 == 10);
  EXPECT(p.tail_pct == 95.0 && p.tail == 190.0);

  // 40 samples: p95 has 2 beyond it; p75 (rank 30) is the highest with 10.
  const perfbench::Percentiles q = perfbench::Summarize(Range(40));
  EXPECT(q.p95 == 38.0 && q.beyond_p95 == 2);
  EXPECT(q.tail_pct == 75.0 && q.tail == 30.0);

  // 2000 samples: p99 (rank 1980) has 20 beyond, p99.9 only 2.
  const perfbench::Percentiles r = perfbench::Summarize(Range(2000));
  EXPECT(r.tail_pct == 99.0 && r.tail == 1980.0);

  // Too few samples for any percentile to have 10 beyond it.
  const perfbench::Percentiles s = perfbench::Summarize(Range(19));
  EXPECT(s.tail_pct == 0.0 && s.p50 == 10.0 && s.p95 == 19.0);
}

void TestMetricNames() {
  std::set<std::string> seen;
  for (const auto* defs :
       {&perfbench::EndToEndMetrics(), &perfbench::PerLayerMetrics()}) {
    EXPECT(!defs->empty());
    for (const perfbench::MetricDef& d : *defs) {
      EXPECT(perfbench::ValidMetricName(d.name));
      EXPECT(!d.unit.empty() && d.unit.size() <= 16);
      EXPECT(seen.insert(d.name).second);  // used once
    }
  }
  EXPECT(seen.count("setup_s") == 1);
  EXPECT(!perfbench::ValidMetricName(""));
  EXPECT(!perfbench::ValidMetricName(".leading_dot"));
  EXPECT(!perfbench::ValidMetricName("has space"));
  EXPECT(!perfbench::ValidMetricName(std::string(65, 'a')));
  EXPECT(perfbench::ValidMetricName("engine.msj.ms_per_model_s"));
}

void TestJson() {
  perfbench::Outcome o;
  o.attempted = 3;
  std::string error;
  const std::vector<perfbench::MetricDef> defs = {{"a_ms", "ms"}};
  EXPECT(perfbench::FormatJson(o, defs, &error).empty());  // missing metric
  o.values["a_ms"] = 1.25;
  const std::string json = perfbench::FormatJson(o, defs, &error);
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
}

}  // namespace

int main() {
  TestPercentiles();
  TestMetricNames();
  TestJson();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
