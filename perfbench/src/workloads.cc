#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "common/rng.h"
#include "data/generator.h"
#include "plan/executor.h"
#include "soak/soak.h"

namespace perfbench {

using gumbo::Database;
using gumbo::Result;
using gumbo::Status;
using Clock = std::chrono::steady_clock;
namespace plan = gumbo::plan;

namespace {

// Input sizes (materialized tuples per relation). Every relation
// represents the paper's 100M tuples, as in the figure benchmarks.
constexpr size_t kBsgfTuples = 100000;
constexpr size_t kShardedTuples = 20000;
constexpr double kRepresentedTuples = 100e6;
constexpr int kShards = 3;

// serve-rw: database, query pool and client mix. The mix is fixed rather
// than drawn per operation, so every run performs the same work: drawing
// writes (Bernoulli 0.1), write targets and reads (Zipf) independently
// made the number of cache invalidations and the query mix, and with them
// throughput and CPU per operation, vary by 10-15% between runs.
constexpr size_t kServeTuples = 20000;
constexpr double kServeSelectivity = 0.4;
constexpr size_t kPoolSize = 48;
constexpr int kClients = 4;
// Every tenth operation of a client is a write; a client's writes go
// round-robin over the base relations.
constexpr uint64_t kWriteEvery = 10;
// Reads follow a cycle of about kReadCycle in which each pool query
// occurs in proportion to its Zipf(kZipfTheta) popularity, evenly spaced;
// clients start at staggered, seed-chosen points of it.
constexpr double kZipfTheta = 0.8;
constexpr size_t kReadCycle = 240;
// The pool is the workload's fixed query mix, like A1-B2 and C1-C4 in the
// batch workloads: generated from this constant, so the seed varies the
// data and the client op streams, not the queries.
constexpr uint64_t kPoolSeed = 0x9001;
// Throughput and CPU per operation are taken per sub-interval of this
// length, and their medians reported.
constexpr double kIntervalS = 2.0;
// Guard facts inserted between the two verification rounds.
constexpr int kVerifyGuardFacts = 16;

// Set-up is repeated and its median reported. The first two set-ups of a
// process run ~40% slower (they fault in fresh memory), so with 5 repeats
// the median sat on that step; with 9 it is a warm set-up.
constexpr int kSetupRepeats = 9;

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

// About `length` pool indices, query q occurring round(length * mass(q))
// times (at least once), each query's occurrences evenly spaced.
std::vector<size_t> ReadCycle(size_t pool, size_t length) {
  const gumbo::data::ZipfDistribution zipf(pool, kZipfTheta);
  std::vector<std::pair<double, size_t>> slots;
  for (size_t q = 0; q < pool; ++q) {
    const size_t count = std::max<size_t>(
        1, static_cast<size_t>(std::lround(zipf.Mass(q) * length)));
    for (size_t k = 0; k < count; ++k) {
      slots.emplace_back((static_cast<double>(k) + 0.5) / count, q);
    }
  }
  std::sort(slots.begin(), slots.end());
  std::vector<size_t> cycle;
  for (const auto& slot : slots) cycle.push_back(slot.second);
  return cycle;
}

/// One timed operation of a batch workload: plan + execute, cold.
struct CellRun {
  Status status;
  double ms = 0.0;
  double cpu_ms = 0.0;
  plan::Metrics metrics;
  Database outputs;
};

CellRun RunCell(const Batch& batch, const Cell& cell,
                gumbo::mr::Engine* engine) {
  CellRun r;
  const Source& src = batch.sources[cell.source];
  const double cpu0 = CpuMs();
  const Clock::time_point t0 = Clock::now();
  plan::PlannerOptions popts;
  popts.strategy = cell.strategy;
  const plan::Planner planner(Cluster(), popts);
  Result<plan::QueryPlan> p = planner.Plan(*src.query, *src.db);
  if (p.ok()) {
    plan::ExecutionContext ctx;
    ctx.local_shards = cell.shards;
    Result<plan::ExecutionResult> e =
        plan::ExecutePlanOnSnapshot(*p, engine, *src.db, &r.outputs, ctx);
    if (e.ok()) {
      r.metrics = e->metrics;
    } else {
      r.status = e.status();
    }
  } else {
    r.status = p.status();
  }
  r.ms = MsSince(t0);
  r.cpu_ms = CpuMs() - cpu0;
  return r;
}

// Counts one operation; a failure or a wrong answer counts as failed.
void Check(const Batch& batch, const Cell& cell, const CellRun& run,
           Outcome* out, std::string* log) {
  ++out->attempted;
  const std::string diff = run.status.ok()
                               ? batch.oracles[cell.source].Diff(run.outputs)
                               : run.status.ToString();
  if (diff.empty()) return;
  if (out->failed++ < 5) *log += "  MISMATCH " + cell.label + ": " + diff + "\n";
}

// What a timed interval observed, reduced to end-to-end metrics by
// SetEndToEnd. Throughput and CPU are medians over the run's passes
// (batch workloads) or fixed sub-intervals (serve-rw), so one stalled
// stretch of a run does not move them.
struct Totals {
  std::vector<double> setup_s;
  /// The values latency percentiles are taken over: per-cell medians
  /// (batch workloads) or every read (serve-rw).
  std::vector<double> latency_ms;
  std::vector<double> raw_ms;  ///< every operation's latency sample
  std::vector<double> qps;     ///< per pass / sub-interval
  std::vector<double> cpu_ms_per_op;
  size_t modeled = 0;  ///< operations whose modeled cost is summed below
  double net_s = 0.0;
  double total_s = 0.0;
  double comm_mb = 0.0;
};

void SetEndToEnd(const Totals& t, Outcome* out, std::string* log) {
  const Percentiles lat = Summarize(t.latency_ms);
  const Percentiles raw = Summarize(t.raw_ms);
  const double modeled = static_cast<double>(t.modeled > 0 ? t.modeled : 1);
  out->values["setup_s"] = Median(t.setup_s);
  out->values["throughput_qps"] = Median(t.qps);
  out->values["latency_p50_ms"] = lat.p50;
  out->values["latency_p95_ms"] = lat.p95;
  out->values["cpu_ms_per_query"] = Median(t.cpu_ms_per_op);
  out->values["peak_rss_mb"] = PeakRssMb();
  out->values["model_net_s"] = t.net_s / modeled;
  out->values["model_total_s"] = t.total_s / modeled;
  out->values["comm_gb"] = t.comm_mb / 1024.0 / modeled;
  char line[320];
  *log += "  set-up s:";
  for (double s : t.setup_s) {
    std::snprintf(line, sizeof(line), " %.4f", s);
    *log += line;
  }
  *log += "\n";
  std::snprintf(line, sizeof(line),
                "  latency percentiles over %zu values from n=%zu samples; "
                "samples: p50 %.3f ms, p95 %.3f ms (%zu beyond), highest "
                "percentile with >=10 samples beyond it: p%g = %.3f ms\n",
                lat.n, raw.n, raw.p50, raw.p95, raw.beyond_p95, raw.tail_pct,
                raw.tail);
  *log += line;
}

Result<Outcome> RunBatchEndToEnd(const Options& o, std::string* log) {
  Totals t;
  std::unique_ptr<Batch> batch;
  std::unique_ptr<gumbo::mr::Engine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    batch.reset();
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    GUMBO_ASSIGN_OR_RETURN(batch, MakeBatch(o.workload, o.seed));
    engine = std::make_unique<gumbo::mr::Engine>(Cluster());
    t.setup_s.push_back(MsSince(t0) / 1e3);
  }
  GUMBO_RETURN_IF_ERROR(AttachOracles(batch.get()));

  Outcome out;
  WarmUp(*batch, engine.get(), &out, log);

  // Whole passes only, so every run samples each cell equally often.
  const size_t cells = batch->cells.size();
  std::vector<std::vector<double>> cell_ms(cells);
  std::vector<double> pass_ms;
  const Clock::time_point start = Clock::now();
  do {
    double ms = 0.0;
    double cpu_ms = 0.0;
    for (size_t i = 0; i < cells; ++i) {
      const Cell& cell = batch->cells[i];
      const CellRun run = RunCell(*batch, cell, engine.get());
      cell_ms[i].push_back(run.ms);
      t.raw_ms.push_back(run.ms);
      ms += run.ms;
      cpu_ms += run.cpu_ms;
      ++t.modeled;
      t.net_s += run.metrics.net_time;
      t.total_s += run.metrics.total_time;
      t.comm_mb += run.metrics.communication_mb;
      Check(*batch, cell, run, &out, log);
    }
    pass_ms.push_back(ms);
    t.qps.push_back(static_cast<double>(cells) * 1e3 / ms);
    t.cpu_ms_per_op.push_back(cpu_ms / static_cast<double>(cells));
  } while (MsSince(start) < o.seconds * 1e3);

  // A query's latency is its cell's median over the passes; percentiles
  // are taken across the cells, each weighted equally.
  char line[160];
  for (size_t i = 0; i < cells; ++i) {
    t.latency_ms.push_back(Median(cell_ms[i]));
    std::snprintf(line, sizeof(line), "  %-16s median %9.2f ms\n",
                  batch->cells[i].label.c_str(), t.latency_ms.back());
    *log += line;
  }
  *log += "  pass ms:";
  for (double ms : pass_ms) {
    std::snprintf(line, sizeof(line), " %.0f", ms);
    *log += line;
  }
  *log += "\n";
  SetEndToEnd(t, &out, log);
  return out;
}

Result<Outcome> RunServeEndToEnd(const Options& o, std::string* log) {
  Totals t;
  std::unique_ptr<ServeWorld> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = MakeServeWorld(o.seed);
    StartService(world.get());
    t.setup_s.push_back(MsSince(t0) / 1e3);
  }
  Outcome out;
  WarmService(world.get(), &out);
  const LoopResult loop = RunClosedLoop(world.get(), o.seed, o.seconds);
  out.attempted += loop.ops();
  out.failed += loop.failed;
  if (!loop.first_error.empty()) *log += "  FAILED " + loop.first_error + "\n";
  // Latency is per query; write latency is a serve-layer metric of the
  // traced run (serve.write_ms_p50 / _p95).
  t.latency_ms = loop.read_ms;
  t.raw_ms = t.latency_ms;
  t.qps = loop.interval_qps;
  t.cpu_ms_per_op = loop.interval_cpu_ms_per_op;
  t.modeled = loop.read_ms.size();
  t.net_s = loop.net_s;
  t.total_s = loop.total_s;
  t.comm_mb = loop.comm_mb;
  char line[160];
  std::snprintf(line, sizeof(line), "  %zu reads, %zu writes in %.2f s\n",
                loop.read_ms.size(), loop.write_ms.size(), loop.window_s);
  *log += line;
  *log += "  ops/s per interval:";
  for (double qps : loop.interval_qps) {
    std::snprintf(line, sizeof(line), " %.1f", qps);
    *log += line;
  }
  *log += "\n";
  SetEndToEnd(t, &out, log);
  VerifyPool(world.get(), o.seed, &out, log);
  return out;
}

}  // namespace

void WarmUp(const Batch& batch, gumbo::mr::Engine* engine, Outcome* out,
            std::string* log) {
  for (const Cell& cell : batch.cells) {
    Check(batch, cell, RunCell(batch, cell, engine), out, log);
  }
}

void WarmService(ServeWorld* world, Outcome* out) {
  for (const auto& q : world->pool) {
    ++out->attempted;
    if (!world->service->Run(q.query).ok()) ++out->failed;
  }
}

gumbo::cost::ClusterConfig Cluster() { return gumbo::cost::ClusterConfig{}; }

double CpuMs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Result<std::unique_ptr<Batch>> MakeBatch(const std::string& workload,
                                         uint64_t seed) {
  auto batch = std::make_unique<Batch>();
  gumbo::data::GeneratorConfig g;
  g.seed = seed;
  g.selectivity = 0.5;
  if (workload == "bsgf") {
    g.tuples = kBsgfTuples;
    g.representation_scale = kRepresentedTuples / static_cast<double>(g.tuples);
    for (int i = 1; i <= 5; ++i) {
      GUMBO_ASSIGN_OR_RETURN(gumbo::data::Workload w, gumbo::data::MakeA(i, g));
      batch->workloads.push_back(std::move(w));
    }
    for (int i = 1; i <= 2; ++i) {
      GUMBO_ASSIGN_OR_RETURN(gumbo::data::Workload w, gumbo::data::MakeB(i, g));
      batch->workloads.push_back(std::move(w));
    }
  } else if (workload == "sgf-sharded") {
    g.tuples = kShardedTuples;
    g.representation_scale = kRepresentedTuples / static_cast<double>(g.tuples);
    for (int i = 1; i <= 4; ++i) {
      GUMBO_ASSIGN_OR_RETURN(gumbo::data::Workload w, gumbo::data::MakeC(i, g));
      batch->workloads.push_back(std::move(w));
    }
  } else {
    return Status::InvalidArgument("no batch workload named " + workload);
  }
  for (const gumbo::data::Workload& w : batch->workloads) {
    const size_t source = batch->sources.size();
    batch->sources.push_back({&w.query, &w.db});
    std::vector<std::pair<plan::Strategy, int>> runs;
    if (workload == "bsgf") {
      runs = {{plan::Strategy::kSeq, 1}, {plan::Strategy::kGreedy, 1}};
      if (w.name == "A3") runs.push_back({plan::Strategy::kOneRound, 1});
    } else {
      runs = {{plan::Strategy::kGreedySgf, kShards}};
    }
    for (const auto& [strategy, shards] : runs) {
      batch->cells.push_back({w.name + "/" + plan::StrategyName(strategy),
                              source, strategy, shards});
    }
  }
  return batch;
}

Status AttachOracles(Batch* batch) {
  batch->oracles.clear();
  for (const Source& src : batch->sources) {
    GUMBO_ASSIGN_OR_RETURN(Oracle oracle, Oracle::Compute(*src.query, *src.db));
    batch->oracles.push_back(std::move(oracle));
  }
  return Status::Ok();
}

std::unique_ptr<ServeWorld> MakeServeWorld(uint64_t seed) {
  using gumbo::sgf::QueryShape;
  auto world = std::make_unique<ServeWorld>();
  // No wide-fanout shape: GREEDY plans its 8-10 atoms for hundreds of ms
  // (as B1 in bsgf), so a run's throughput hinged on how many of those
  // few queries missed the caches.
  const QueryShape shapes[] = {QueryShape::kMixed, QueryShape::kMixed,
                               QueryShape::kDeepChain,
                               QueryShape::kAntiJoinHeavy};
  std::set<std::string> texts;
  std::map<std::string, uint32_t> base;
  for (uint64_t i = 0; world->pool.size() < kPoolSize; ++i) {
    gumbo::sgf::QueryGenConfig qc;
    qc.shape = shapes[i % 4];
    gumbo::sgf::GeneratedQuery q =
        gumbo::sgf::QueryGenerator(qc).Generate(kPoolSeed + i);
    if (!texts.insert(q.Text()).second) continue;
    base.insert(q.base_relations.begin(), q.base_relations.end());
    world->pool.push_back(std::move(q));
  }
  world->db = gumbo::soak::BuildDatabase(base, gumbo::soak::DataRegime::kUniform,
                                         seed, kServeTuples, kServeSelectivity);
  world->relations.assign(base.begin(), base.end());
  return world;
}

void StartService(ServeWorld* world) {
  world->service = std::make_unique<gumbo::serve::QueryService>(
      &world->db, gumbo::serve::ServiceOptions{});
}

std::unique_ptr<Batch> PoolBatch(const ServeWorld& world) {
  auto batch = std::make_unique<Batch>();
  for (size_t i = 0; i < world.pool.size(); ++i) {
    batch->sources.push_back({&world.pool[i].query, &world.db});
    batch->cells.push_back(
        {"pool" + std::to_string(i), i, plan::Strategy::kGreedy, 1});
  }
  return batch;
}

LoopResult RunClosedLoop(ServeWorld* world, uint64_t seed, double seconds) {
  struct ClientLog {
    std::vector<double> read_ms, write_ms;
    uint64_t failed = 0;
    double net_s = 0.0, total_s = 0.0, comm_mb = 0.0;
    std::string error;
  };
  std::vector<ClientLog> logs(kClients);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  const std::vector<size_t> cycle = ReadCycle(world->pool.size(), kReadCycle);
  const uint64_t start =
      gumbo::Xoshiro256(gumbo::SplitMix64::Mix(seed)).Uniform(cycle.size());
  auto client = [&](int c) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    gumbo::Xoshiro256 rng(gumbo::SplitMix64::Mix(seed ^ (0xc11e47ULL + c)));
    // Clients write at staggered positions of the cycle, not in bursts.
    const uint64_t phase = static_cast<uint64_t>(c) * kWriteEvery / kClients;
    uint64_t writes = 0;
    uint64_t reads = start + static_cast<uint64_t>(c) * cycle.size() / kClients;
    for (uint64_t op = 0; !stop.load(std::memory_order_relaxed); ++op) {
      if (op % kWriteEvery == phase) {
        const auto& [name, arity] =
            world->relations[(static_cast<size_t>(c) + writes++) %
                             world->relations.size()];
        gumbo::Tuple t;
        for (uint32_t a = 0; a < arity; ++a) {
          t.PushBack(gumbo::Value::Int(
              static_cast<int64_t>(rng.Uniform(kServeTuples))));
        }
        const Clock::time_point t0 = Clock::now();
        const Status st = world->service->AddFact(name, t);
        log.write_ms.push_back(MsSince(t0));
        completed.fetch_add(1);
        if (!st.ok()) {
          ++log.failed;
          if (log.error.empty()) log.error = "AddFact: " + st.ToString();
        }
      } else {
        const auto& q = world->pool[cycle[reads++ % cycle.size()]];
        const Clock::time_point t0 = Clock::now();
        const gumbo::serve::Response r = world->service->Run(q.query);
        log.read_ms.push_back(MsSince(t0));
        completed.fetch_add(1);
        if (!r.ok()) {
          ++log.failed;
          if (log.error.empty()) log.error = "query: " + r.status.ToString();
          continue;
        }
        log.net_s += r.metrics.net_time;
        log.total_s += r.metrics.total_time;
        log.comm_mb += r.metrics.communication_mb;
      }
    }
  };

  LoopResult result;
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    // Joins on every path, so no client outlives the state it uses.
    struct Joiner {
      std::vector<std::thread>* threads;
      std::atomic<bool>* stop;
      ~Joiner() {
        stop->store(true);
        for (std::thread& t : *threads) t.join();
      }
    } joiner{&threads, &stop};
    double cpu_ms = CpuMs();
    uint64_t ops = 0;
    Clock::time_point from = Clock::now();
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    const int intervals =
        std::max(1, static_cast<int>(std::lround(seconds / kIntervalS)));
    for (int k = 1; k <= intervals; ++k) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds * k / intervals)));
      const double cpu_now = CpuMs();
      const uint64_t ops_now = completed.load();
      const Clock::time_point now = Clock::now();
      const double n = static_cast<double>(ops_now - ops);
      result.interval_qps.push_back(
          n / std::chrono::duration<double>(now - from).count());
      if (n > 0) result.interval_cpu_ms_per_op.push_back((cpu_now - cpu_ms) / n);
      cpu_ms = cpu_now;
      ops = ops_now;
      from = now;
    }
  }
  result.window_s = MsSince(t0) / 1e3;
  for (ClientLog& log : logs) {
    result.read_ms.insert(result.read_ms.end(), log.read_ms.begin(),
                          log.read_ms.end());
    result.write_ms.insert(result.write_ms.end(), log.write_ms.begin(),
                           log.write_ms.end());
    result.failed += log.failed;
    result.net_s += log.net_s;
    result.total_s += log.total_s;
    result.comm_mb += log.comm_mb;
    if (result.first_error.empty()) result.first_error = log.error;
  }
  return result;
}

void VerifyPool(ServeWorld* world, uint64_t seed, Outcome* out,
                std::string* log) {
  // Asks pool queries in `order` and checks each answer against the
  // naive evaluation over the current database. The service is idle
  // between these calls, so reading its database races with nothing.
  auto ask_all = [&](const std::vector<size_t>& order, const char* when) {
    for (size_t i : order) {
      const gumbo::sgf::SgfQuery& query = world->pool[i].query;
      ++out->attempted;
      const gumbo::serve::Response r = world->service->Run(query);
      std::string diff;
      if (!r.ok()) {
        diff = r.status.ToString();
      } else {
        Result<Oracle> oracle = Oracle::Compute(query, world->db);
        diff = oracle.ok() ? oracle->Diff(r.outputs)
                           : "oracle: " + oracle.status().ToString();
      }
      if (!diff.empty() && out->failed++ < 5) {
        *log += "  MISMATCH pool" + std::to_string(i) + " " + when + ": " +
                diff + "\n";
      }
    }
  };
  std::vector<size_t> order(world->pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  ask_all(order, "after the timed writes");

  // Guard-only inserts are insert-only epoch moves, so every entry still
  // in the result cache is delta-maintained on its next ask. Asking in
  // reverse reaches the most recently cached entries before any miss
  // evicts them.
  gumbo::Xoshiro256 rng(gumbo::SplitMix64::Mix(seed ^ 0x6a7dULL));
  for (const auto& [name, arity] : world->relations) {
    if (arity < 3) continue;
    for (int f = 0; f < kVerifyGuardFacts; ++f) {
      gumbo::Tuple t;
      for (uint32_t a = 0; a < arity; ++a) {
        t.PushBack(gumbo::Value::Int(
            static_cast<int64_t>(rng.Uniform(kServeTuples))));
      }
      ++out->attempted;
      if (!world->service->AddFact(name, t).ok()) ++out->failed;
    }
  }
  std::reverse(order.begin(), order.end());
  ask_all(order, "after guard inserts");
}

Result<Outcome> RunEndToEnd(const Options& options, std::string* log) {
  if (options.workload == "serve-rw") return RunServeEndToEnd(options, log);
  return RunBatchEndToEnd(options, log);
}

}  // namespace perfbench
