// The traced run: per-layer metrics, measured from outside the library by
// timing calls into each module's public functions.
//
// Per cell (one query, one strategy) the traced run
//   1. times Planner::Plan                                  -> plan.*
//   2. times plan::ExecutePlanOnSnapshot with a caller-owned
//      SchedGroupMetrics and the global scheduler's counters -> runtime.*,
//                                                              sched.*,
//                                                              shuffle.*
//   3. replays the same plan job by job through mr::JobExecution, timing
//      Prepare / maps / partition / reduces / Finish and the commit at
//      each round barrier                                   -> engine.*
//   4. repeats the execution on a one-worker scheduler     -> sched.speedup
//   5. on sharded cells, repeats it on one shard and round-trips each
//      output through the wire codec                        -> dist.*
// serve-rw additionally runs its closed loop and reads ServiceStats
// deltas and AddFact timings                                -> serve.*
//
// Fidelity: the replay must commit outputs byte-identical to step 2, and
// the timed calls of steps 1-3 must cover at least 90% of the wall time
// those steps take; otherwise the run is rejected.
#include <cstdio>

#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/runtime.h"
#include "plan/executor.h"
#include "workloads.h"

namespace perfbench {

using gumbo::Database;
using gumbo::Result;
using gumbo::Status;
using Clock = std::chrono::steady_clock;
namespace mr = gumbo::mr;
namespace plan = gumbo::plan;

namespace {

constexpr double kMinCoverage = 0.9;

enum Op { kSj, kUnion, kMsj, kEval, kOneRound, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"sj", "union", "msj", "eval",
                                           "oneround"};
enum Phase { kPrepare, kMap, kPartition, kReduce, kFinish, kNumPhases };
constexpr const char* kPhaseNames[kNumPhases] = {"prepare", "map",
                                                 "partition", "reduce",
                                                 "finish"};

// The operator a job implements, from the planner's job names; -1 for
// jobs of no listed operator (timed, but attributed to none).
int Classify(const std::string& job) {
  auto starts = [&job](const char* prefix) { return job.rfind(prefix, 0) == 0; };
  if (starts("SJ[") || starts("ASJ[")) return kSj;
  if (starts("UNION(")) return kUnion;
  if (starts("MSJ(")) return kMsj;
  if (starts("EVAL(")) return kEval;
  if (starts("1ROUND(")) return kOneRound;
  return -1;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Layer observations summed over the traced cells.
struct Trace {
  double queries = 0, plan_ms = 0, exec_ms = 0, jobs = 0, rounds = 0;
  double round_ms = 0, round_count = 0, commit_ms = 0, replay_job_ms = 0;
  double covered_ms = 0, traced_ms = 0;
  struct OpTotals {
    double phase_ms[kNumPhases] = {};
    double model_s = 0, jobs = 0;
  } ops[kNumOps];
  double seq_ms = 0, seq_n = 0, greedy_ms = 0, greedy_n = 0;
  double records = 0, messages = 0, combined = 0, filtered = 0;
  double collisions = 0, filter_mb = 0;
  double busy_ms = 0, stall_ms = 0, morsels = 0, steals = 0;
  double worker_ms = 0, one_worker_ms = 0;
  double sharded_queries = 0, wire_mb = 0, sharded_ms = 0, one_shard_ms = 0;
  double frame_mb = 0, encode_s = 0, decode_s = 0;
};

// Step 3: the plan's jobs, round by round, phase by phase. Jobs of a
// round run one after another (each phase still uses every worker), and
// their outputs are committed at the round barrier in job order, as the
// round runtime does. The plan's outputs land in `*outputs`.
Status Replay(const plan::QueryPlan& p, const mr::Engine& engine,
              const Database& base, Database* outputs, Trace* t) {
  Database overlay(&base);
  for (const std::vector<size_t>& round : mr::Runtime::JobRounds(p.program)) {
    std::vector<mr::Engine::JobResult> done;
    for (size_t j : round) {
      const mr::JobSpec& job = p.program.job(j);
      double ms[kNumPhases];
      Clock::time_point t0 = Clock::now();
      GUMBO_ASSIGN_OR_RETURN(
          std::unique_ptr<mr::JobExecution> x,
          mr::JobExecution::Prepare(engine, job, overlay, gumbo::SchedContext{}));
      ms[kPrepare] = MsSince(t0);
      t0 = Clock::now();
      GUMBO_RETURN_IF_ERROR(x->RunMaps());
      x->AccountMaps();
      ms[kMap] = MsSince(t0);
      t0 = Clock::now();
      GUMBO_RETURN_IF_ERROR(x->Partition(
          x->ChooseReducers(x->OwnedIntermediateMb(), x->TotalInputMb())));
      ms[kPartition] = MsSince(t0);
      t0 = Clock::now();
      GUMBO_RETURN_IF_ERROR(x->RunReduces());
      x->AccountReduces();
      ms[kReduce] = MsSince(t0);
      t0 = Clock::now();
      GUMBO_ASSIGN_OR_RETURN(mr::Engine::JobResult result, x->Finish());
      ms[kFinish] = MsSince(t0);

      const int op = Classify(job.name);
      for (int ph = 0; ph < kNumPhases; ++ph) {
        t->replay_job_ms += ms[ph];
        if (op >= 0) t->ops[op].phase_ms[ph] += ms[ph];
      }
      if (op >= 0) {
        t->ops[op].model_s += result.stats.TotalCost();
        t->ops[op].jobs += 1;
      }
      done.push_back(std::move(result));
    }
    const Clock::time_point t0 = Clock::now();
    for (mr::Engine::JobResult& r : done) {
      for (gumbo::Relation& out : r.outputs) overlay.Put(std::move(out));
    }
    t->commit_ms += MsSince(t0);
  }
  for (const std::string& name : p.outputs) {
    GUMBO_ASSIGN_OR_RETURN(gumbo::Relation * rel, overlay.GetMutable(name));
    outputs->Put(std::move(*rel));
  }
  return Status::Ok();
}

// Step 5b: each output through EncodeRelationFrame and back.
Status RoundTripFrames(const plan::QueryPlan& p, const Database& outputs,
                       Trace* t) {
  for (const std::string& name : p.outputs) {
    GUMBO_ASSIGN_OR_RETURN(const gumbo::Relation* rel, outputs.Get(name));
    Clock::time_point t0 = Clock::now();
    const std::vector<uint8_t> frame = gumbo::dist::EncodeRelationFrame(*rel, 0);
    t->encode_s += MsSince(t0) / 1e3;
    t0 = Clock::now();
    GUMBO_ASSIGN_OR_RETURN(gumbo::dist::FrameReader reader,
                           gumbo::dist::FrameReader::Parse(frame));
    GUMBO_ASSIGN_OR_RETURN(gumbo::Relation back,
                           gumbo::dist::DecodeRelationBody(&reader));
    t->decode_s += MsSince(t0) / 1e3;
    t->frame_mb += static_cast<double>(frame.size()) / 1e6;
    if (back.words() != rel->words() ||
        back.fingerprints() != rel->fingerprints()) {
      return Status::Internal("wire round trip changed " + name);
    }
  }
  return Status::Ok();
}

Result<Database> Execute(const plan::QueryPlan& p, mr::Engine* engine,
                         const Source& src, const plan::ExecutionContext& ctx,
                         double* ms, plan::ExecutionResult* result = nullptr) {
  Database outputs;
  const Clock::time_point t0 = Clock::now();
  GUMBO_ASSIGN_OR_RETURN(
      plan::ExecutionResult r,
      plan::ExecutePlanOnSnapshot(p, engine, *src.db, &outputs, ctx));
  *ms += MsSince(t0);
  if (result != nullptr) *result = std::move(r);
  return outputs;
}

// Steps 1-5 for one cell. Wrong answers count into `out`; a replay that
// diverges from the timed execution sets out->fatal.
Status TraceCell(const Batch& batch, const Cell& cell, mr::Engine* engine,
                 mr::Engine* one_worker, Trace* t, Outcome* out,
                 std::string* log) {
  const Source& src = batch.sources[cell.source];
  const Clock::time_point start = Clock::now();

  Clock::time_point t0 = Clock::now();
  plan::PlannerOptions popts;
  popts.strategy = cell.strategy;
  GUMBO_ASSIGN_OR_RETURN(
      plan::QueryPlan p,
      plan::Planner(Cluster(), popts).Plan(*src.query, *src.db));
  const double plan_ms = MsSince(t0);

  gumbo::SchedGroupMetrics group;
  plan::ExecutionContext ctx;
  ctx.local_shards = cell.shards;
  ctx.sched.metrics = &group;
  const uint64_t steals0 = engine->scheduler().stats().steals;
  double exec_ms = 0.0;
  plan::ExecutionResult exec;
  GUMBO_ASSIGN_OR_RETURN(Database timed,
                         Execute(p, engine, src, ctx, &exec_ms, &exec));
  const uint64_t steals = engine->scheduler().stats().steals - steals0;

  const double replay0 = t->replay_job_ms + t->commit_ms;
  Database replayed;
  GUMBO_RETURN_IF_ERROR(Replay(p, *engine, *src.db, &replayed, t));
  t->traced_ms += MsSince(start);
  t->covered_ms += plan_ms + exec_ms + (t->replay_job_ms + t->commit_ms - replay0);

  const std::string replay_diff = DiffExact(timed, replayed, p.outputs);
  if (!replay_diff.empty() && out->fatal.empty()) {
    out->fatal = cell.label + ": JobExecution replay differs from the timed "
                 "execution: " + replay_diff;
  }
  ++out->attempted;
  const std::string diff = batch.oracles[cell.source].Diff(timed);
  if (!diff.empty() && out->failed++ < 5) {
    *log += "  MISMATCH " + cell.label + ": " + diff + "\n";
  }

  t->queries += 1;
  t->plan_ms += plan_ms;
  t->exec_ms += exec_ms;
  t->jobs += exec.metrics.jobs;
  t->rounds += exec.metrics.rounds;
  for (const mr::RoundStats& r : exec.stats.round_stats) {
    t->round_ms += r.wall_ms;
    t->round_count += 1;
  }
  if (cell.strategy == plan::Strategy::kSeq) {
    t->seq_ms += exec_ms;
    t->seq_n += 1;
  } else if (cell.strategy == plan::Strategy::kGreedy) {
    t->greedy_ms += exec_ms;
    t->greedy_n += 1;
  }
  t->records += static_cast<double>(exec.metrics.shuffle_records);
  t->messages += static_cast<double>(exec.metrics.shuffle_messages);
  t->combined += static_cast<double>(exec.metrics.combined_messages);
  t->filtered += static_cast<double>(exec.metrics.filtered_messages);
  for (const mr::JobStats& js : exec.stats.jobs) {
    t->collisions += static_cast<double>(js.fingerprint_collisions);
    t->filter_mb += js.filter_mb;
  }
  t->busy_ms += static_cast<double>(group.busy_us.load()) / 1e3;
  t->stall_ms += static_cast<double>(group.stall_us.load()) / 1e3;
  t->morsels += static_cast<double>(group.morsels.load());
  t->steals += static_cast<double>(steals);
  t->worker_ms +=
      exec_ms * static_cast<double>(engine->scheduler().num_workers());

  plan::ExecutionContext plain;
  plain.local_shards = cell.shards;
  GUMBO_RETURN_IF_ERROR(
      Execute(p, one_worker, src, plain, &t->one_worker_ms).status());

  if (cell.shards > 1) {
    t->sharded_queries += 1;
    t->wire_mb += exec.metrics.dist_wire_mb;
    t->sharded_ms += exec_ms;
    GUMBO_RETURN_IF_ERROR(
        Execute(p, engine, src, plan::ExecutionContext{}, &t->one_shard_ms)
            .status());
    GUMBO_RETURN_IF_ERROR(RoundTripFrames(p, timed, t));
  }
  return Status::Ok();
}

void SetLayers(const Trace& t, Outcome* out) {
  auto& v = out->values;
  const double q = t.queries > 0 ? t.queries : 1;
  v["plan.ms_per_query"] = t.plan_ms / q;
  v["plan.share"] = Ratio(t.plan_ms, t.plan_ms + t.exec_ms);
  v["plan.jobs_per_query"] = t.jobs / q;
  v["plan.rounds_per_query"] = t.rounds / q;
  v["runtime.exec_ms_per_query"] = t.exec_ms / q;
  v["runtime.round_ms"] = Ratio(t.round_ms, t.round_count);
  v["runtime.commit_ms"] = t.commit_ms / q;
  v["runtime.overlap"] = Ratio(t.replay_job_ms, t.exec_ms);
  for (int op = 0; op < kNumOps; ++op) {
    const Trace::OpTotals& o = t.ops[op];
    const std::string prefix = std::string("engine.") + kOpNames[op] + ".";
    double total = 0.0;
    for (int ph = 0; ph < kNumPhases; ++ph) {
      v[prefix + kPhaseNames[ph] + "_ms"] = Ratio(o.phase_ms[ph], o.jobs);
      total += o.phase_ms[ph];
    }
    v[prefix + "ms_per_model_s"] = Ratio(total, o.model_s);
  }
  // Only a workload that runs the same queries under both strategies
  // compares them.
  const bool both = t.seq_n > 0 && t.greedy_n > 0;
  const double seq = both ? t.seq_ms / t.seq_n : 0.0;
  const double greedy = both ? t.greedy_ms / t.greedy_n : 0.0;
  v["strategy.seq.ms_per_query"] = seq;
  v["strategy.greedy.ms_per_query"] = greedy;
  v["strategy.greedy_over_seq"] = Ratio(greedy, seq);
  v["shuffle.records"] = t.records / q;
  v["shuffle.messages"] = t.messages / q;
  v["shuffle.combined_frac"] = Ratio(t.combined, t.messages + t.combined);
  v["shuffle.filtered_frac"] =
      Ratio(t.filtered, t.filtered + t.messages + t.combined);
  v["shuffle.fingerprint_collisions"] = t.collisions / q;
  v["shuffle.filter_mb"] = t.filter_mb / q;
  v["sched.busy_ms"] = t.busy_ms / q;
  v["sched.stall_ms"] = t.stall_ms / q;
  v["sched.morsels"] = t.morsels / q;
  v["sched.steals"] = t.steals / q;
  v["sched.utilization"] = Ratio(t.busy_ms, t.worker_ms);
  v["sched.speedup_n_over_1"] = Ratio(t.one_worker_ms, t.exec_ms);
  v["dist.wire_mb"] = Ratio(t.wire_mb, t.sharded_queries);
  v["dist.shard_slowdown"] = Ratio(t.sharded_ms, t.one_shard_ms);
  v["dist.encode_mb_s"] = Ratio(t.frame_mb, t.encode_s);
  v["dist.decode_mb_s"] = Ratio(t.frame_mb, t.decode_s);
  v["trace.coverage"] = Ratio(t.covered_ms, t.traced_ms);
}

// serve-rw's own layer: the closed loop again, read through ServiceStats
// deltas and timed AddFact calls. Other workloads report zeros here.
void SetServeLayer(ServeWorld* world, const Options& o, Outcome* out,
                   std::string* log) {
  auto& v = out->values;
  for (const MetricDef& d : PerLayerMetrics()) {
    if (d.name.rfind("serve.", 0) == 0) v[d.name] = 0.0;
  }
  if (world == nullptr) return;
  StartService(world);
  WarmService(world, out);
  const gumbo::serve::ServiceStats s0 = world->service->Stats();
  const LoopResult loop = RunClosedLoop(world, o.seed, o.seconds);
  const gumbo::serve::ServiceStats s1 = world->service->Stats();
  out->attempted += loop.ops();
  out->failed += loop.failed;
  if (!loop.first_error.empty()) *log += "  FAILED " + loop.first_error + "\n";

  const double n0 = static_cast<double>(s0.completed + s0.failed);
  const double n1 = static_cast<double>(s1.completed + s1.failed);
  const double reads = n1 - n0;
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  auto mean_delta = [&](double m0, double m1) {
    return Ratio(m1 * n1 - m0 * n0, reads);
  };
  const double plan_lookups = delta(s0.cache.hits, s1.cache.hits) +
                              delta(s0.cache.misses, s1.cache.misses);
  v["serve.result_hit_rate"] =
      Ratio(delta(s0.result_hits, s1.result_hits), reads);
  v["serve.delta_rate"] = Ratio(delta(s0.delta_hits, s1.delta_hits), reads);
  v["serve.plan_hit_rate"] =
      Ratio(delta(s0.cache.hits, s1.cache.hits), plan_lookups);
  v["serve.plans_built"] = delta(s0.plans_built, s1.plans_built);
  v["serve.plan_coalesced"] = delta(s0.plan_coalesced, s1.plan_coalesced);
  v["serve.result_evictions"] =
      delta(s0.result_cache.evictions, s1.result_cache.evictions);
  v["serve.delta_rows"] = delta(s0.delta_rows, s1.delta_rows);
  v["serve.queue_ms"] = mean_delta(s0.mean_queue_ms, s1.mean_queue_ms);
  v["serve.plan_ms"] = mean_delta(s0.mean_plan_ms, s1.mean_plan_ms);
  v["serve.exec_ms"] = mean_delta(s0.mean_exec_ms, s1.mean_exec_ms);
  v["serve.delta_ms"] =
      Ratio(s1.mean_delta_ms * static_cast<double>(s1.delta_hits) -
                s0.mean_delta_ms * static_cast<double>(s0.delta_hits),
            delta(s0.delta_hits, s1.delta_hits));
  const Percentiles writes = Summarize(loop.write_ms);
  v["serve.write_ms_p50"] = writes.p50;
  v["serve.write_ms_p95"] = writes.p95;
  VerifyPool(world, o.seed, out, log);
}

}  // namespace

Result<Outcome> RunTraced(const Options& options, std::string* log) {
  Outcome out;
  std::unique_ptr<ServeWorld> world;
  std::unique_ptr<Batch> batch;
  const Clock::time_point t0 = Clock::now();
  if (options.workload == "serve-rw") {
    world = MakeServeWorld(options.seed);
    batch = PoolBatch(*world);
  } else {
    GUMBO_ASSIGN_OR_RETURN(batch, MakeBatch(options.workload, options.seed));
  }
  out.values["data.generate_ms"] = MsSince(t0);
  GUMBO_RETURN_IF_ERROR(AttachOracles(batch.get()));

  mr::Engine engine(Cluster());
  gumbo::Scheduler single(1);
  mr::Engine one_worker(Cluster(), &single);
  WarmUp(*batch, &engine, &out, log);

  // Whole passes over the cells; serve-rw spends its time in the loop.
  Trace t;
  const Clock::time_point start = Clock::now();
  do {
    for (const Cell& cell : batch->cells) {
      GUMBO_RETURN_IF_ERROR(
          TraceCell(*batch, cell, &engine, &one_worker, &t, &out, log));
    }
  } while (world == nullptr && MsSince(start) < options.seconds * 1e3);
  SetLayers(t, &out);
  SetServeLayer(world.get(), options, &out, log);

  const double coverage = out.values["trace.coverage"];
  if (coverage < kMinCoverage && out.fatal.empty()) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "timed layer calls cover %.1f%% of the traced query wall "
                  "time (< %.0f%%)",
                  100.0 * coverage, 100.0 * kMinCoverage);
    out.fatal = msg;
  }
  return out;
}

}  // namespace perfbench
