// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload bsgf|sgf-sharded|serve-rw [--seed N]
//             [--seconds S] [--trace 0|1]
//   perfbench --list-metrics
//
// An untraced run (--trace 0) prints the end-to-end metrics of one
// workload; a traced run (--trace 1) prints its per-layer metrics. Either
// way every answer is checked against the naive evaluator. The last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. Exit status: 0 on success, 1 when an answer was wrong or an
// operation failed, 2 on a usage or set-up error, 3 when a traced run
// failed its fidelity checks (no result is printed then).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/scheduler.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bsgf|sgf-sharded|serve-rw [--seed N] [--seconds S] "
               "[--trace 0|1]\n       perfbench --list-metrics\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& d : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", d.name.c_str(), d.unit.c_str());
      }
      for (const MetricDef& d : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", d.name.c_str(), d.unit.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
      if (!o.trace && std::strcmp(value, "0") != 0) return Usage("--trace takes 0 or 1");
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload != "bsgf" && o.workload != "sgf-sharded" &&
      o.workload != "serve-rw") {
    return Usage("--workload must be bsgf, sgf-sharded or serve-rw");
  }
  if (!(o.seconds > 0.0)) return Usage("--seconds must be positive");

  std::printf("perfbench %s: seed %llu, %.0f s, %s run, %zu scheduler "
              "workers, %s build\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? "traced" : "untraced",
              gumbo::Scheduler::Global().num_workers(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
  std::string log;
  gumbo::Result<Outcome> r = o.trace ? RunTraced(o, &log) : RunEndToEnd(o, &log);
  std::printf("%s", log.c_str());
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", r.status().ToString().c_str());
    return 2;
  }
  const std::vector<MetricDef>& defs =
      o.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("%s", FormatTable(*r, defs).c_str());
  std::printf("  %-36s %14.6g fraction (%llu of %llu operations)\n",
              "error_rate",
              r->attempted > 0 ? static_cast<double>(r->failed) /
                                     static_cast<double>(r->attempted)
                               : 0.0,
              static_cast<unsigned long long>(r->failed),
              static_cast<unsigned long long>(r->attempted));
  if (!r->fatal.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: rejected: %s\n", r->fatal.c_str());
    return 3;
  }
  std::string error;
  const std::string json = FormatJson(*r, defs, &error);
  if (json.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("%s\n", json.c_str());
  return r->correct() ? 0 : 1;
}
