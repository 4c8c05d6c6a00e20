// Engine: executes one MapReduce job on real data with real parallelism,
// while accounting I/O in *represented* megabytes for the cost model
// (DESIGN.md §2, "real execution + modeled clock").
//
// Execution pipeline per job:
//   1. each input relation is split into map tasks of split_mb represented
//      megabytes (splits never span relations, matching HDFS);
//   2. map tasks run as *morsel chains* on the work-stealing scheduler
//      (DESIGN.md §9): each task's scan is a sequence of fixed-size row
//      ranges sharing one mapper + emission buffer, so a task yields the
//      worker between morsels without changing what it emits; emitted
//      key/values are handed to the shuffle subsystem (mr/shuffle.h);
//   3. the reducer count is chosen per the job's allocation policy;
//      the shuffle hash-partitions the records;
//   4. reduce tasks run as morsel chains over whole key groups, keys in
//      sorted order, and produce the output relations.
//
// RunDetached executes a job against a read-only database view and returns
// the outputs without committing them; the round runtime (mr/runtime.h)
// uses it to run independent jobs concurrently and commit their outputs in
// deterministic job order. Run is the single-job convenience wrapper that
// commits immediately.
//
// Results are deterministic: a morsel chain preserves its task's emission
// order exactly (morsels of one chain never run concurrently), outputs
// are collected per task index and concatenated in task order — both
// independent of worker count, stealing, and priority (DESIGN.md §9).
#ifndef GUMBO_MR_ENGINE_H_
#define GUMBO_MR_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "common/scheduler.h"
#include "cost/constants.h"
#include "mr/job.h"
#include "mr/shuffle.h"
#include "mr/stats.h"

namespace gumbo::mr {

/// One map task: a contiguous slice of one input relation. The split is
/// a pure function of the resolved inputs and the cluster config, so
/// every shard of a cluster computes the identical task list and can
/// talk about "task ti" without exchanging specs (DESIGN.md §13).
struct MapTaskSpec {
  size_t input_index = 0;
  size_t begin = 0;
  size_t end = 0;
  double input_mb = 0.0;
};

/// Ownership predicate over map-task / reduce-partition indices: an
/// execution only runs (and accounts) the units the predicate accepts.
/// Empty = owns everything (single-process execution).
using OwnedFn = std::function<bool(size_t)>;

class Engine {
 public:
  /// `scheduler`: morsel scheduler for map/reduce work and concurrent
  /// jobs (nullptr = the process-wide Scheduler::Global()). `options`
  /// carries the default morsel size (GUMBO_MORSEL_ROWS).
  explicit Engine(cost::ClusterConfig config, Scheduler* scheduler = nullptr,
                  SchedOptions options = SchedOptions::FromEnv())
      : config_(std::move(config)),
        scheduler_(scheduler),
        sched_options_(options) {}

  const cost::ClusterConfig& config() const { return config_; }
  Scheduler& scheduler() const {
    return scheduler_ != nullptr ? *scheduler_ : Scheduler::Global();
  }
  const SchedOptions& sched_options() const { return sched_options_; }

  /// A detached job execution: statistics plus the produced output
  /// relations, in JobSpec::outputs order, not yet visible in any database.
  struct JobResult {
    JobStats stats;
    std::vector<Relation> outputs;
  };

  /// Executes `job` against `db` without modifying it; the caller decides
  /// when (and where) to commit the outputs. Safe to call concurrently
  /// from multiple threads as long as nothing mutates `db` meanwhile.
  /// `ctx` sets the priority class / morsel size / metrics sink for this
  /// job's morsels; its scheduler field is ignored (the engine's wins).
  Result<JobResult> RunDetached(const JobSpec& job, const Database& db,
                                const SchedContext& ctx = {}) const;

  /// Runs `job` against `db`: reads the input relations, writes (replaces)
  /// the output relations, and returns the job's statistics.
  Result<JobStats> Run(const JobSpec& job, Database* db,
                       const SchedContext& ctx = {}) const;

 private:
  cost::ClusterConfig config_;
  Scheduler* scheduler_;
  SchedOptions sched_options_;
};

/// One job execution broken into resumable phases, so a caller can
/// interpose between them. RunDetached drives the whole sequence in one
/// process; the sharded runtime (src/dist/sharded.h) runs one
/// JobExecution per shard, restricts RunMaps/RunReduces to the units
/// that shard owns, and exchanges shuffle partitions / reducer counts /
/// output fragments over a Transport between the phases.
///
/// Phase order (each at most once):
///   Prepare -> RunMaps(owned) -> AccountMaps(owned)
///     -> ChooseReducers(...) -> [shuffle export/import] -> Partition(r)
///     -> RunReduces(owned) -> AccountReduces(owned) -> Finish()
///
/// The engine, job spec, and database passed to Prepare must outlive
/// the JobExecution; nothing may mutate the database meanwhile.
class JobExecution {
 public:
  /// Validates the job, resolves inputs against `db`, plans the map
  /// tasks, builds Bloom filters, and initializes the stats skeleton.
  /// `ctx`'s scheduler field is ignored (the engine's wins).
  static Result<std::unique_ptr<JobExecution>> Prepare(
      const Engine& engine, const JobSpec& job, const Database& db,
      const SchedContext& ctx);

  ~JobExecution();  // out-of-line: nested accounting structs are private

  /// The global map-task decomposition — identical on every shard.
  const std::vector<MapTaskSpec>& tasks() const { return tasks_; }

  /// Representation scale shared by all of this job's inputs.
  double scale() const { return scale_; }

  /// The job's Bloom filters (DESIGN.md §5.2); nullptr when the job
  /// builds none.
  const FilterSet* filters() const { return filters_.get(); }

  /// Sum of input_mb over ALL map tasks (not just owned ones); a pure
  /// function of the task list, so every shard agrees without exchange.
  double TotalInputMb() const;

  /// Runs the owned map tasks as morsel chains, feeding the shuffle.
  Status RunMaps(const OwnedFn& owned = {});

  /// Accounts the owned map tasks into stats(): per-task costs, per-input
  /// I/O aggregates, hdfs_read_mb, shuffle_mb, and the shuffle counters.
  /// Unowned cost slots stay zero so shard stats merge by element-wise sum.
  void AccountMaps(const OwnedFn& owned = {});

  /// Intermediate (shuffle) MB produced by the owned map tasks. Shards
  /// exchange these sums to agree on the global reducer count.
  double OwnedIntermediateMb(const OwnedFn& owned = {}) const;

  /// Reducer count per the job's allocation policy, from *global* totals.
  int ChooseReducers(double total_intermediate_mb,
                     double total_input_mb) const;

  /// The shuffle holding the owned tasks' records. The sharded runtime
  /// exports wire frames from it, then move-assigns a freshly imported
  /// Shuffle over it before calling Partition.
  Shuffle& shuffle() { return shuffle_; }

  /// Hash-partitions the shuffle into `num_reducers` partitions.
  Status Partition(int num_reducers);

  /// Runs the owned reduce partitions as morsel chains.
  Status RunReduces(const OwnedFn& owned = {});

  /// Accounts the owned reduce partitions into stats(): per-partition
  /// costs, hdfs_write_mb, and the received-MB tally that Finish()
  /// reconciles against shuffle_mb.
  void AccountReduces(const OwnedFn& owned = {});

  /// MB received by the owned reduce partitions (valid after
  /// AccountReduces); shards ship this for the global reconciliation.
  double ReceivedMb() const { return received_mb_; }

  /// Snapshots the live retry counters into stats(). Finish() does this
  /// itself; a shard calls it before shipping its stats frame.
  void FinalizeCounters();

  /// Moves partition `rj`'s output builders out (one per declared
  /// output). Sharded execution encodes these as output-fragment
  /// frames instead of calling Finish().
  std::vector<RelationBuilder> TakeReduceOutputs(size_t rj);

  /// Single-process epilogue: reconciles sent vs. received MB,
  /// concatenates partition outputs in partition order, dedupes where
  /// the spec asks, and returns the stats + relations.
  Result<Engine::JobResult> Finish();

  /// Mutable access for the sharded runtime's stats merge.
  JobStats& stats() { return stats_; }

 private:
  struct TaskIo;
  struct ReduceOut;

  JobExecution(const Engine& engine, const JobSpec& job);

  const Engine& engine_;
  const JobSpec& job_;
  std::vector<const Relation*> inputs_;
  double scale_ = 1.0;
  std::vector<MapTaskSpec> tasks_;
  std::shared_ptr<const FilterSet> filters_;
  SchedContext sched_ctx_;  // scheduler resolved, never null
  size_t morsel_rows_ = 0;
  uint32_t max_retries_ = 0;
  RetryCounters retry_counters_;
  Shuffle shuffle_;
  std::vector<TaskIo> task_io_;
  std::vector<ReduceOut> red_;
  JobStats stats_;
  double broadcast_cost_per_task_ = 0.0;
  double received_mb_ = 0.0;
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_ENGINE_H_
