// Execution statistics of jobs and programs — the paper's four metrics
// (total time, net time, input bytes, communication bytes) plus per-task
// detail consumed by the net-time scheduler.
#ifndef GUMBO_MR_STATS_H_
#define GUMBO_MR_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gumbo::mr {

/// Live fault-tolerance counters one job's concurrent task chains share
/// (DESIGN.md §11): bumped with relaxed atomics while map/shuffle/reduce
/// tasks retry, snapshotted into JobStats once the job quiesces.
struct RetryCounters {
  std::atomic<uint64_t> task_retries{0};
  std::atomic<uint64_t> faults_injected{0};
  std::atomic<uint64_t> retry_us{0};  ///< wall time of abandoned attempts
};

/// Per-input-partition accounting (maps onto the cost model's (N_i, M_i)).
struct InputStats {
  std::string dataset;
  double input_mb = 0.0;     ///< N_i: HDFS bytes read
  double output_mb = 0.0;    ///< M_i: intermediate bytes produced
  double metadata_mb = 0.0;  ///< Mhat_i
  int num_map_tasks = 0;     ///< m_i
};

/// How a job counter merges when the shards of one sharded job are
/// combined on the coordinator (dist::ShardedRuntime, DESIGN.md §13).
/// Across the jobs of a program every counter sums (ProgramStats::Totals).
enum class Merge {
  kSum,         ///< each shard owns a disjoint share; the shares are summed
  kReplicated,  ///< every shard computes the same global value
  kCoordinator, ///< only the coordinator computes the value
};

// The scalar job counters: the one definition the JobStats fields,
// ProgramStats::Totals, plan::Metrics and the kJobStats wire codec
// (dist/wire.h) are generated from, so adding a counter is one row here.
// Row: X(name, type, merge rule, deterministic); `deterministic` is false
// for wall-clock counters. DESIGN.md §4 describes every row; note that
// shuffle_mb (measured once, map-side, after combining) is the single
// source of truth for shuffle volume — reduce-side totals and
// RoundStats::shuffle_mb are derived from it, never re-measured.
#define GUMBO_JOB_COUNTERS(X)                            \
  X(num_reducers, int, kReplicated, true)                \
  X(hdfs_read_mb, double, kSum, true)                    \
  X(shuffle_mb, double, kSum, true)                      \
  X(hdfs_write_mb, double, kSum, true)                   \
  X(job_overhead, double, kReplicated, true)             \
  X(shuffle_records, uint64_t, kSum, true)               \
  X(shuffle_messages, uint64_t, kSum, true)              \
  X(fingerprint_collisions, uint64_t, kSum, true)        \
  X(combined_messages, uint64_t, kSum, true)             \
  X(combined_mb, double, kSum, true)                     \
  X(filtered_messages, uint64_t, kSum, true)             \
  X(filter_mb, double, kReplicated, true)                \
  X(filter_broadcast_mb, double, kReplicated, true)      \
  X(filter_build_cost, double, kReplicated, true)        \
  X(task_retries, uint64_t, kSum, true)                  \
  X(faults_injected, uint64_t, kSum, true)               \
  X(retry_ms, double, kSum, false)                       \
  X(dist_wire_mb, double, kCoordinator, true)            \
  X(dist_cost, double, kCoordinator, true)

/// One GUMBO_JOB_COUNTERS row as ForEachCounter reports it; the merge rule
/// is compile-time: `if constexpr (decltype(c)::merge == Merge::kSum)`.
template <Merge M, bool Deterministic>
struct Counter {
  static constexpr Merge merge = M;
  static constexpr bool deterministic = Deterministic;
  const char* name;
};

/// The scalar counters of one job (or their sum over several jobs).
struct JobCounters {
#define GUMBO_COUNTER_FIELD(name, type, merge, det) type name = 0;
  GUMBO_JOB_COUNTERS(GUMBO_COUNTER_FIELD)
#undef GUMBO_COUNTER_FIELD
};

/// Calls `f(Counter<...>{name}, member pointer)` once per table row, in
/// table order (the order the kJobStats frame ships the kSum rows in).
template <typename F>
void ForEachCounter(F&& f) {
#define GUMBO_COUNTER_VISIT(name, type, merge, det) \
  f(Counter<Merge::merge, det>{#name}, &JobCounters::name);
  GUMBO_JOB_COUNTERS(GUMBO_COUNTER_VISIT)
#undef GUMBO_COUNTER_VISIT
}

struct JobStats : JobCounters {
  std::string job_name;
  std::vector<InputStats> inputs;
  std::vector<double> map_task_costs;     ///< cost-seconds per map task
  std::vector<double> reduce_task_costs;  ///< cost-seconds per reduce task

  /// Aggregate cost of the job = cost_h + filter build + real wire
  /// transfer + all task costs (filter broadcast is inside the map task
  /// costs, DESIGN.md §5.3).
  double TotalCost() const {
    double c = job_overhead + filter_build_cost + dist_cost;
    for (double t : map_task_costs) c += t;
    for (double t : reduce_task_costs) c += t;
    return c;
  }
};

/// Per-round accounting of the round runtime (mr/runtime.h). A round is
/// one dependency-depth level of the program's job DAG; all jobs of a
/// round are independent and execute concurrently.
struct RoundStats {
  int round = 0;              ///< 1-based round number
  std::vector<size_t> jobs;   ///< program job indices executed this round
  double max_job_cost = 0.0;  ///< modeled: slowest job (overhead + tasks)
  double sum_job_cost = 0.0;  ///< modeled: aggregate cost of the round
  int max_concurrent = 0;     ///< observed peak of jobs in flight at once
  double wall_ms = 0.0;       ///< real wall-clock of the round
  /// Shuffle MB of the round's jobs, copied from JobStats::shuffle_mb at
  /// the commit barrier — derived, never re-measured, so program totals
  /// and round totals cannot drift apart (tests/runtime_test.cc asserts
  /// the reconciliation).
  double shuffle_mb = 0.0;
};

struct ProgramStats {
  std::vector<JobStats> jobs;
  std::vector<RoundStats> round_stats;  ///< filled by the round runtime
  double total_time = 0.0;  ///< aggregate task time across all jobs
  double net_time = 0.0;    ///< simulated makespan (slot-constrained)
  double wall_ms = 0.0;     ///< real wall-clock of the whole program
  int rounds = 0;           ///< longest dependency chain of jobs

  /// Largest observed number of concurrently-executing jobs in any round.
  int MaxConcurrentJobs() const {
    int v = 0;
    for (const auto& r : round_stats) {
      if (r.max_concurrent > v) v = r.max_concurrent;
    }
    return v;
  }

  /// Every counter summed over the program's jobs, in job order.
  JobCounters Totals() const {
    JobCounters t;
    for (const JobStats& j : jobs) {
      ForEachCounter([&](auto, auto field) { t.*field += j.*field; });
    }
    return t;
  }
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_STATS_H_
