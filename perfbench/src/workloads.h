// The benchmark's three workloads and their inputs.
//
//   bsgf         Table-2 BSGF queries A1-A5, B1-B2 at 100k tuples per
//                relation, each planned and executed cold under SEQ and
//                GREEDY (plus A3 under 1-ROUND); one load thread.
//   sgf-sharded  Nested SGF sets C1-C4 under GREEDY-SGF at 20k tuples per
//                relation, executed on 3 in-process shards; one load
//                thread.
//   serve-rw     4 closed-loop clients against one serve::QueryService
//                (default options) over a 20k-tuple database: every
//                tenth operation an AddFact write, the rest reads of a
//                pool of 48 generated queries in Zipf proportions.
//
// The seed reaches only the generators (data and client op streams); the
// library sees nothing but the generated inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "cost/constants.h"
#include "mr/engine.h"
#include "data/workloads.h"
#include "oracle.h"
#include "plan/planner.h"
#include "report.h"
#include "serve/service.h"
#include "sgf/query_gen.h"

namespace perfbench {

inline constexpr uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

/// One query over one database and its reference answer.
struct Source {
  const gumbo::sgf::SgfQuery* query = nullptr;
  const gumbo::Database* db = nullptr;
};

/// The operation unit of the batch workloads: a source planned under
/// `strategy` and executed on `shards` local shards.
struct Cell {
  std::string label;
  size_t source = 0;  ///< index into Batch::sources
  gumbo::plan::Strategy strategy = gumbo::plan::Strategy::kGreedy;
  int shards = 1;
};

/// A batch of cells and their inputs. Sources may point into
/// `workloads`, so a Batch stays where it was built (held by unique_ptr).
struct Batch {
  Batch() = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  std::vector<gumbo::data::Workload> workloads;
  std::vector<Source> sources;
  std::vector<Oracle> oracles;  ///< parallel to sources, once attached
  std::vector<Cell> cells;
};

/// Generates the bsgf or sgf-sharded inputs, without reference answers.
gumbo::Result<std::unique_ptr<Batch>> MakeBatch(const std::string& workload,
                                                uint64_t seed);
/// Computes every source's reference answer (kept out of every timed
/// interval).
gumbo::Status AttachOracles(Batch* batch);

/// serve-rw's inputs: the database, the query pool and, once started, the
/// service over the database. The service holds a pointer to `db`, so a
/// ServeWorld stays where it was built (held by unique_ptr).
struct ServeWorld {
  ServeWorld() = default;
  ServeWorld(const ServeWorld&) = delete;
  ServeWorld& operator=(const ServeWorld&) = delete;
  ServeWorld(ServeWorld&&) = delete;
  ServeWorld& operator=(ServeWorld&&) = delete;

  gumbo::Database db;
  std::vector<gumbo::sgf::GeneratedQuery> pool;
  /// (name, arity) of every base relation, the write targets.
  std::vector<std::pair<std::string, uint32_t>> relations;
  /// Declared last, so it is destroyed (drained and joined) before the
  /// database it reads.
  std::unique_ptr<gumbo::serve::QueryService> service;
};

/// Runs and checks every cell once, untimed. The first executions in a
/// process run slow (allocator growth, page faults), and users of a
/// long-lived engine do not pay that per query.
void WarmUp(const Batch& batch, gumbo::mr::Engine* engine, Outcome* out,
            std::string* log);

/// Generates the serve-rw database and query pool (no service yet).
std::unique_ptr<ServeWorld> MakeServeWorld(uint64_t seed);
/// Starts the service with default ServiceOptions.
void StartService(ServeWorld* world);
/// Asks every pool query once, so both caches hold what they can before
/// timing starts, as in a long-running service.
void WarmService(ServeWorld* world, Outcome* out);
/// The pool queries over the world's database as GREEDY cells, without
/// reference answers.
std::unique_ptr<Batch> PoolBatch(const ServeWorld& world);

/// What one closed-loop interval of serve-rw observed.
struct LoopResult {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t failed = 0;
  double window_s = 0.0;
  /// Operations per second and CPU ms per operation, per sub-interval.
  std::vector<double> interval_qps;
  std::vector<double> interval_cpu_ms_per_op;
  double net_s = 0.0;    ///< summed modeled net time of the reads
  double total_s = 0.0;  ///< summed modeled total time of the reads
  double comm_mb = 0.0;  ///< summed modeled communication of the reads
  std::string first_error;
  uint64_t ops() const { return read_ms.size() + write_ms.size(); }
};

/// Runs the 4-client closed loop for `seconds`; writes stop with it.
LoopResult RunClosedLoop(ServeWorld* world, uint64_t seed, double seconds);

/// Re-asks every pool query of the quiesced service and compares each
/// answer with the naive evaluation over the final database; then inserts
/// a few seeded guard facts, so cached entries are delta-maintained, and
/// asks and compares every query again. Adds the operations to
/// `out->attempted` and mismatches or failures to `out->failed`.
void VerifyPool(ServeWorld* world, uint64_t seed, Outcome* out,
                std::string* log);

/// The paper-testbed cluster configuration every workload plans for.
gumbo::cost::ClusterConfig Cluster();

/// Process user+sys CPU time in ms.
double CpuMs();
/// Peak resident set size of the process in MB.
double PeakRssMb();
/// Wall-clock ms since `t0`.
double MsSince(std::chrono::steady_clock::time_point t0);

/// The untraced run: end-to-end metrics.
gumbo::Result<Outcome> RunEndToEnd(const Options& options, std::string* log);
/// The traced run: per-layer metrics (trace.cc).
gumbo::Result<Outcome> RunTraced(const Options& options, std::string* log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
