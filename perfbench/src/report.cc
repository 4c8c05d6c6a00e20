#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile `pct` among n samples.
size_t Rank(double pct, size_t n) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

std::vector<MetricDef> BuildPerLayer() {
  std::vector<MetricDef> m = {
      {"data.generate_ms", "ms"},
      {"plan.ms_per_query", "ms"},
      {"plan.share", "fraction"},
      {"plan.jobs_per_query", "count"},
      {"plan.rounds_per_query", "count"},
      {"runtime.exec_ms_per_query", "ms"},
      {"runtime.round_ms", "ms"},
      {"runtime.commit_ms", "ms"},
      {"runtime.overlap", "ratio"},
  };
  for (const char* op : {"sj", "union", "msj", "eval", "oneround"}) {
    for (const char* phase : {"prepare", "map", "partition", "reduce",
                              "finish"}) {
      m.push_back({std::string("engine.") + op + "." + phase + "_ms", "ms"});
    }
    m.push_back({std::string("engine.") + op + ".ms_per_model_s", "ms/s"});
  }
  const std::vector<MetricDef> rest = {
      {"strategy.seq.ms_per_query", "ms"},
      {"strategy.greedy.ms_per_query", "ms"},
      {"strategy.greedy_over_seq", "ratio"},
      {"shuffle.records", "count"},
      {"shuffle.messages", "count"},
      {"shuffle.combined_frac", "fraction"},
      {"shuffle.filtered_frac", "fraction"},
      {"shuffle.fingerprint_collisions", "count"},
      {"shuffle.filter_mb", "MB"},
      {"sched.busy_ms", "ms"},
      {"sched.stall_ms", "ms"},
      {"sched.morsels", "count"},
      {"sched.steals", "count"},
      {"sched.utilization", "fraction"},
      {"sched.speedup_n_over_1", "ratio"},
      {"serve.result_hit_rate", "fraction"},
      {"serve.delta_rate", "fraction"},
      {"serve.plan_hit_rate", "fraction"},
      {"serve.plans_built", "count"},
      {"serve.plan_coalesced", "count"},
      {"serve.result_evictions", "count"},
      {"serve.delta_rows", "count"},
      {"serve.queue_ms", "ms"},
      {"serve.plan_ms", "ms"},
      {"serve.exec_ms", "ms"},
      {"serve.delta_ms", "ms"},
      {"serve.write_ms_p50", "ms"},
      {"serve.write_ms_p95", "ms"},
      {"dist.wire_mb", "MB"},
      {"dist.shard_slowdown", "ratio"},
      {"dist.encode_mb_s", "MB/s"},
      {"dist.decode_mb_s", "MB/s"},
      {"trace.coverage", "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace

Percentiles Summarize(std::vector<double> samples) {
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  p.p50 = samples[Rank(50, n) - 1];
  const size_t r95 = Rank(95, n);
  p.p95 = samples[r95 - 1];
  p.beyond_p95 = n - r95;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t r = Rank(pct, n);
    if (n - r >= 10) {
      p.tail_pct = pct;
      p.tail = samples[r - 1];
      break;
    }
  }
  return p;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},          {"throughput_qps", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_p95_ms", "ms"},
      {"cpu_ms_per_query", "ms"}, {"peak_rss_mb", "MB"},
      {"model_net_s", "s"},      {"model_total_s", "s"},
      {"comm_gb", "GB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = BuildPerLayer();
  return kMetrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum && (i == 0 || (c != '_' && c != '.' && c != '-'))) {
      return false;
    }
  }
  return true;
}

std::string FormatTable(const Outcome& outcome,
                        const std::vector<MetricDef>& defs) {
  std::string out;
  char line[160];
  for (const MetricDef& d : defs) {
    auto it = outcome.values.find(d.name);
    if (it == outcome.values.end()) {
      std::snprintf(line, sizeof(line), "  %-36s %14s %s\n", d.name.c_str(),
                    "missing", d.unit.c_str());
    } else {
      std::snprintf(line, sizeof(line), "  %-36s %14.6g %s\n", d.name.c_str(),
                    it->second, d.unit.c_str());
    }
    out += line;
  }
  return out;
}

std::string FormatJson(const Outcome& outcome,
                       const std::vector<MetricDef>& defs,
                       std::string* error) {
  std::string metrics;
  char buf[96];
  for (const MetricDef& d : defs) {
    auto it = outcome.values.find(d.name);
    if (it == outcome.values.end() || !std::isfinite(it->second)) {
      *error = "metric " + d.name +
               (it == outcome.values.end() ? " missing" : " not finite");
      return "";
    }
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + d.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               d.unit + "\"}";
  }
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                outcome.correct() ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
  return std::string(buf) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
