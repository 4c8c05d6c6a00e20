// Plan execution: runs a QueryPlan's MR program on the round runtime,
// keeps its intermediates out of the caller's database, and collects the
// paper's metrics.
#ifndef GUMBO_PLAN_EXECUTOR_H_
#define GUMBO_PLAN_EXECUTOR_H_

#include "common/relation.h"
#include "common/result.h"
#include "cost/calibration.h"
#include "mr/program.h"
#include "plan/planner.h"

namespace gumbo::dist {
struct Cluster;  // dist/sharded.h
}  // namespace gumbo::dist

namespace gumbo::plan {

/// Everything an execution entry point needs beyond the plan and the
/// database — one struct instead of a parameter per concern, so adding a
/// concern (as §13 added `cluster`) does not ripple through every
/// ExecutePlan* signature again.
struct ExecutionContext {
  /// Scheduling identity of the query: priority class, cancel token,
  /// fault plan, metrics sink (common/scheduler.h). The scheduler field
  /// is ignored as usual — the engine's wins.
  SchedContext sched;
  /// When set, the execution's observed sizes/yields are fed back into
  /// the store (CalibrateFromExecution) before returning — the §10
  /// calibration loop without a second call at every call site.
  cost::CalibrationStore* calibration = nullptr;
  /// When set (and num_shards > 1), the program runs on this shard of a
  /// real cluster via dist::ShardedRuntime — every shard of the cluster
  /// must execute the same plan. Borrowed.
  dist::Cluster* cluster = nullptr;
  /// When cluster is null and local_shards > 1, the program runs on
  /// `local_shards` in-process shards (one thread each) over an
  /// InProcTransport, byte-identical to the default path.
  int local_shards = 1;
  /// When set, every relation in it shadows its base namesake for the
  /// whole run — delta-mode execution (DESIGN.md §12): a cached plan
  /// re-executes over delta slices instead of the full relations. The
  /// caller (serve::QueryService) guarantees via serve::PlanDelta that
  /// shadowed names occur only in guard position, so the run produces
  /// exactly the delta of each dirty output. Borrowed.
  const Database* overrides = nullptr;
};

/// The paper's four performance metrics (§5.1) plus bookkeeping. Every
/// job counter of the mr::GUMBO_JOB_COUNTERS table is inherited under its
/// table name, summed over the program's jobs (ProgramStats::Totals):
/// input bytes are hdfs_read_mb, output bytes hdfs_write_mb, and
/// dist_wire_mb the real wire frame MB between shards (DESIGN.md §13).
struct Metrics : mr::JobCounters {
  double net_time = 0.0;        ///< query submission -> final result
  double total_time = 0.0;      ///< aggregate task time
  /// Bytes shuffled mapper -> reducer, plus Bloom-filter broadcast bytes
  /// when filters are in use (DESIGN.md §5.3).
  double communication_mb = 0.0;
  double wall_ms = 0.0;         ///< real wall-clock of the execution
  int jobs = 0;
  int rounds = 0;
  /// Largest number of jobs sharing one round (plan structure).
  int max_jobs_per_round = 0;
  /// Observed peak of concurrently-executing jobs (runtime behavior).
  int peak_running_jobs = 0;
  // ---- Serving-layer bookkeeping (DESIGN.md §8, §12) ----
  // Filled by serve::QueryService; zero/false for direct ExecutePlan calls.
  bool plan_cache_hit = false;  ///< lowered plan came from the plan cache
  double queue_ms = 0.0;        ///< admission-queue wait before execution
  double plan_ms = 0.0;         ///< planning wall time (0 on a cache hit)
  /// Outputs served straight from the result cache — no planning, no
  /// execution (the other fields describe an empty execution).
  bool result_cache_hit = false;
  /// Outputs delta-maintained from a cached result: the execution fields
  /// describe the (delta-sized) maintenance pass, not a full run.
  bool delta_applied = false;
  uint64_t delta_rows = 0;  ///< input delta rows the maintenance pass read
  // ---- Morsel-scheduling attribution (DESIGN.md §9) ----
  /// Wall time this query's morsels were runnable but unserved (its task
  /// groups had queued work and nothing running — "stolen-from" time).
  /// Summed over the query's groups, so concurrent stalls can exceed the
  /// enclosing wall span; exec_ms excludes this, so an inflated p95
  /// splits into "our work got slower" vs "our work waited its turn".
  double sched_wait_ms = 0.0;
  uint64_t sched_morsels = 0;  ///< morsels this query's groups executed
};

struct ExecutionResult {
  Metrics metrics;
  mr::ProgramStats stats;
};

/// Executes `plan` against the immutable snapshot `base` without writing
/// to it: intermediates and outputs materialize in a private overlay
/// (Database overlay views, common/relation.h), each relation of
/// `ctx.overrides` shadows its base namesake there, and on success the
/// plan's declared output relations are moved into `*outputs`; a failed
/// run moves nothing. Dispatches to the plain round runtime, a real
/// cluster shard, or the local sharded harness according to `ctx`, and
/// feeds `ctx.calibration` when set.
///
/// A lowered QueryPlan is a reusable, immutable artifact: execution never
/// writes into it (job factories instantiate fresh mappers/reducers per
/// task), so one plan may be executed many times — including concurrently
/// against the same `base`, as long as nothing mutates `base` meanwhile —
/// which is what makes the serve-layer plan cache sound (DESIGN.md §8).
Result<ExecutionResult> ExecutePlanOnSnapshot(const QueryPlan& plan,
                                              mr::Engine* engine,
                                              const Database& base,
                                              Database* outputs,
                                              const ExecutionContext& ctx = {});

/// In-place form: ExecutePlanOnSnapshot with `db` as both snapshot and
/// output sink. On success `db` gains the plan's output relations; on
/// failure it is left exactly as it was. Intermediates never land in it.
Result<ExecutionResult> ExecutePlan(const QueryPlan& plan, mr::Engine* engine,
                                    Database* db,
                                    const ExecutionContext& ctx = {});

/// Closes the calibration loop (DESIGN.md §10): matches the observed
/// per-input (N_i, M_i), per-job output sizes, and combiner/filter yields
/// of an executed program against the estimates the planner recorded in
/// `plan.job_estimates`, and feeds each observed/estimated pair into
/// `store`. Jobs and inputs are matched positionally (ProgramStats::jobs
/// is indexed by program job id) with dataset-name sanity checks; yield
/// observations are recorded only for jobs whose spec actually enabled
/// the corresponding knob. Thread-safe via the store.
void CalibrateFromExecution(const QueryPlan& plan,
                            const mr::ProgramStats& stats,
                            cost::CalibrationStore* store);

}  // namespace gumbo::plan

#endif  // GUMBO_PLAN_EXECUTOR_H_
