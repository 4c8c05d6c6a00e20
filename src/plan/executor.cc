#include "plan/executor.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "dist/sharded.h"
#include "dist/transport.h"
#include "mr/runtime.h"

namespace gumbo::plan {

namespace {

// One dispatch for every execution: a real cluster shard wins over the
// local shards, which win over the plain runtime. All three produce
// byte-identical outputs (DESIGN.md §13).
Result<mr::ProgramStats> RunProgram(const mr::Program& program,
                                    mr::Engine* engine, Database* db,
                                    const ExecutionContext& ctx) {
  if (ctx.cluster != nullptr && ctx.cluster->num_shards > 1) {
    dist::ShardedRuntime runtime(engine, *ctx.cluster);
    return runtime.Execute(program, db, ctx.sched);
  }
  if (ctx.local_shards <= 1) {
    return mr::Runtime(engine).Execute(program, db, ctx.sched);
  }

  // Local shards: one thread per shard over one InProcTransport. Every
  // shard — coordinator included — executes against its own overlay
  // replica: `db` stays immutable while any shard reads it, and the
  // coordinator's committed relations move into `db` only after every
  // thread quiesced.
  const size_t shards = static_cast<size_t>(ctx.local_shards);
  dist::InProcTransport tp(ctx.local_shards);
  std::vector<Result<mr::ProgramStats>> results(
      shards, Status::Internal("shard did not run"));
  std::vector<Database> replicas(shards,
                                 Database(static_cast<const Database*>(db)));
  std::vector<std::thread> threads;
  for (size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      const dist::Cluster cluster{&tp, static_cast<int>(s), ctx.local_shards};
      results[s] = dist::ShardedRuntime(engine, cluster)
                       .Execute(program, &replicas[s], ctx.sched);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t s = 1; s < shards; ++s) {
    if (!results[s].ok()) return results[s].status();
  }
  if (!results[0].ok()) return results[0].status();
  Database& coordinator = replicas[0];
  for (const auto& entry : coordinator.relations()) {
    GUMBO_ASSIGN_OR_RETURN(Relation * committed,
                           coordinator.GetMutable(entry.first));
    db->Put(std::move(*committed));
  }
  return std::move(results[0]).value();
}

// The paper's four metrics plus the round counters, derived from the
// program statistics; the job counters are the table's totals.
void FillMetrics(ExecutionResult* result) {
  // Full reset first: Metrics also carries serving fields (plan_cache_hit,
  // queue_ms, sched_wait_ms) that this derivation does not touch, and
  // max_jobs_per_round folds via std::max — a reused ExecutionResult must
  // not leak a previous execution's values into this one
  // (tests/serve_test.cc pins this).
  result->metrics = Metrics{};
  Metrics& m = result->metrics;
  const mr::ProgramStats& stats = result->stats;
  static_cast<mr::JobCounters&>(m) = stats.Totals();
  m.communication_mb = m.shuffle_mb + m.filter_broadcast_mb;
  m.net_time = stats.net_time;
  m.total_time = stats.total_time;
  m.wall_ms = stats.wall_ms;
  m.jobs = static_cast<int>(stats.jobs.size());
  m.rounds = stats.rounds;
  for (const mr::RoundStats& r : stats.round_stats) {
    m.max_jobs_per_round =
        std::max(m.max_jobs_per_round, static_cast<int>(r.jobs.size()));
  }
  m.peak_running_jobs = stats.MaxConcurrentJobs();
}

}  // namespace

Result<ExecutionResult> ExecutePlanOnSnapshot(const QueryPlan& plan,
                                              mr::Engine* engine,
                                              const Database& base,
                                              Database* outputs,
                                              const ExecutionContext& ctx) {
  // All writes (intermediates, outputs) land in the overlay; `base` is
  // only ever read, so concurrent snapshot executions need no locking.
  Database overlay(&base);
  if (ctx.overrides != nullptr) {
    // Shadow first: a local relation wins over the base namesake for
    // every read, so the plan sees the delta slice wherever it would have
    // read the full relation. The slices are small by construction —
    // copying them into the per-query overlay keeps `overrides` reusable.
    for (const auto& [name, rel] : ctx.overrides->relations()) {
      overlay.Put(rel);
    }
  }
  ExecutionResult result;
  GUMBO_ASSIGN_OR_RETURN(result.stats,
                         RunProgram(plan.program, engine, &overlay, ctx));
  for (const std::string& name : plan.outputs) {
    GUMBO_ASSIGN_OR_RETURN(Relation * rel, overlay.GetMutable(name));
    outputs->Put(std::move(*rel));
  }
  FillMetrics(&result);
  CalibrateFromExecution(plan, result.stats, ctx.calibration);
  return result;
}

Result<ExecutionResult> ExecutePlan(const QueryPlan& plan, mr::Engine* engine,
                                    Database* db,
                                    const ExecutionContext& ctx) {
  return ExecutePlanOnSnapshot(plan, engine, *db, db, ctx);
}

void CalibrateFromExecution(const QueryPlan& plan,
                            const mr::ProgramStats& stats,
                            cost::CalibrationStore* store) {
  if (store == nullptr) return;
  const size_t jobs = std::min(plan.job_estimates.size(), stats.jobs.size());
  for (size_t j = 0; j < jobs; ++j) {
    const JobEstimateRecord& rec = plan.job_estimates[j];
    const mr::JobStats& js = stats.jobs[j];
    const size_t inputs = std::min(rec.inputs.size(), js.inputs.size());
    for (size_t i = 0; i < inputs; ++i) {
      const cost::InputEstimateTag& tag = rec.inputs[i];
      const mr::InputStats& obs = js.inputs[i];
      if (!obs.dataset.empty() && obs.dataset != tag.dataset) continue;
      store->Observe(tag.channel, tag.regime, tag.output_mb, obs.output_mb);
      if (tag.channel == cost::Channel::kCatalogOutput) {
        store->Observe(cost::Channel::kCatalogInput, tag.regime, tag.input_mb,
                       obs.input_mb);
      }
    }
    if (rec.bound_defaulted) {
      store->Observe(cost::Channel::kOutputBound, rec.bound_regime,
                     rec.output_mb, js.hdfs_write_mb);
    }
    // Yields are meaningful only when the knob was actually on for this
    // job — otherwise a zero yield would just record the knob's absence.
    if (j < plan.program.size()) {
      const mr::JobSpec& spec = plan.program.job(j);
      const double shuffled = static_cast<double>(js.shuffle_messages);
      if (spec.combiner_factory) {
        const double combined = static_cast<double>(js.combined_messages);
        if (shuffled + combined > 0.0) {
          store->Observe(cost::Channel::kCombinerYield, rec.bound_regime, 1.0,
                         combined / (shuffled + combined));
        }
      }
      if (spec.filter_builder) {
        const double filtered = static_cast<double>(js.filtered_messages);
        const double emitted =
            shuffled + static_cast<double>(js.combined_messages) + filtered;
        if (emitted > 0.0) {
          store->Observe(cost::Channel::kFilterYield, rec.bound_regime, 1.0,
                         filtered / emitted);
        }
      }
    }
  }
}

}  // namespace gumbo::plan
