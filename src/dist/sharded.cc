#include "dist/sharded.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/shuffle.h"

namespace gumbo::dist {

namespace {

constexpr double kMbPerByte = 1.0 / (1024.0 * 1024.0);

/// A received frame. `body` reads `bytes`' heap buffer, which moves keep.
struct Received {
  std::vector<uint8_t> bytes;
  FrameReader body;
};

/// Receives the next frame on (from -> me), parses it once, and checks
/// the type. A kError frame arriving instead carries a peer's failure —
/// it is decoded and propagated as this shard's own status, which is how
/// one shard's local error unwinds the whole lock-step protocol without
/// waiting out the transport timeout.
Result<Received> ExpectFrame(Transport* tp, int me, int from, FrameType want) {
  GUMBO_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, tp->Recv(me, from));
  GUMBO_ASSIGN_OR_RETURN(FrameReader r, FrameReader::Parse(bytes));
  if (r.type() == FrameType::kError) {
    Status peer = DecodeErrorBody(&r);
    if (peer.ok()) peer = Status::Internal("dist: malformed error frame");
    return peer;
  }
  if (r.type() != want) {
    return Status::Internal(
        "dist: shard " + std::to_string(me) + " expected frame type " +
        std::to_string(static_cast<int>(want)) + " from shard " +
        std::to_string(from) + ", got " +
        std::to_string(static_cast<int>(r.type())));
  }
  return Received{std::move(bytes), r};
}

/// Best-effort: tells every other shard this one failed, so their next
/// ExpectFrame unwinds immediately instead of timing out.
void BroadcastError(Transport* tp, int me, int shards, const Status& s) {
  for (int d = 0; d < shards; ++d) {
    if (d == me) continue;
    (void)tp->Send(me, d, EncodeErrorFrame(s, static_cast<uint32_t>(me)));
  }
}

}  // namespace

Result<mr::Engine::JobResult> ShardedRuntime::RunJob(const mr::JobSpec& job,
                                                     const Database& db,
                                                     const SchedContext& ctx,
                                                     uint32_t job_aux) const {
  const int S = cluster_.num_shards;
  const int me = cluster_.shard;
  Transport* tp = cluster_.transport;
  const uint32_t me32 = static_cast<uint32_t>(me);
  const auto owned_map = [S, me](size_t ti) {
    return static_cast<int>(ti % static_cast<size_t>(S)) == me;
  };
  const auto owned_red = [S, me](size_t p) {
    return static_cast<int>(p % static_cast<size_t>(S)) == me;
  };
  // A local failure past Prepare leaves peers blocked mid-protocol;
  // broadcast it so they unwind (see ExpectFrame).
  auto fail = [&](Status s) -> Status {
    BroadcastError(tp, me, S, s);
    return s;
  };

  GUMBO_ASSIGN_OR_RETURN(std::unique_ptr<mr::JobExecution> exec,
                         mr::JobExecution::Prepare(*engine_, job, db, ctx));
  GUMBO_RETURN_IF_ERROR(exec->RunMaps(owned_map));
  exec->AccountMaps(owned_map);

  // ---- Agree on the global reducer count. The split is deterministic
  // and replicated, so only the measured intermediate MB (a function of
  // the data each shard actually mapped) needs exchanging.
  int r = 0;
  if (me == 0) {
    double total_intermediate_mb = exec->OwnedIntermediateMb(owned_map);
    for (int s = 1; s < S; ++s) {
      GUMBO_ASSIGN_OR_RETURN(Received f,
                             ExpectFrame(tp, me, s, FrameType::kMapStats));
      exec->stats().dist_wire_mb +=
          static_cast<double>(f.bytes.size()) * kMbPerByte;
      double shard_mb = 0.0;
      GUMBO_RETURN_IF_ERROR(f.body.ReadF64(&shard_mb));
      total_intermediate_mb += shard_mb;
    }
    r = exec->ChooseReducers(total_intermediate_mb, exec->TotalInputMb());
    FrameWriter w;
    for (int s = 1; s < S; ++s) {
      w.U32(static_cast<uint32_t>(r));
      std::vector<uint8_t> frame =
          w.Finish(FrameType::kReduceAlloc, me32, job_aux);
      exec->stats().dist_wire_mb +=
          static_cast<double>(frame.size()) * kMbPerByte;
      GUMBO_RETURN_IF_ERROR(tp->Send(me, s, std::move(frame)));
    }
  } else {
    FrameWriter w;
    w.F64(exec->OwnedIntermediateMb(owned_map));
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, 0, w.Finish(FrameType::kMapStats, me32, job_aux)));
    GUMBO_ASSIGN_OR_RETURN(Received f,
                           ExpectFrame(tp, me, 0, FrameType::kReduceAlloc));
    uint32_t ru = 0;
    GUMBO_RETURN_IF_ERROR(f.body.ReadU32(&ru));
    r = static_cast<int>(ru);
  }

  // ---- Shuffle exchange: every owned record is routed to the shard
  // owning its partition — one kShuffleChunk frame per destination
  // (empty frames included, so receive counts are uniform). Records are
  // shipped verbatim from the flat shuffle buffers: key words, cached
  // fingerprint, messages, and spilled payloads, with the wire-byte
  // accounting doubles as bit patterns.
  double shuffle_sent_bytes = 0.0;
  {
    std::vector<FrameWriter> writers(static_cast<size_t>(S));
    mr::Shuffle& shuffle = exec->shuffle();
    for (size_t ti = 0; ti < exec->tasks().size(); ++ti) {
      if (!owned_map(ti)) continue;
      shuffle.ForEachTaskRecord(
          ti, [&](const mr::Shuffle::KeyEntry& e, const uint64_t* key_words,
                  const mr::Message* msgs, const uint64_t* payload_arena) {
            const size_t p = mr::Shuffle::PartitionIndex(e.fingerprint, r);
            EncodeShuffleRecord(static_cast<uint32_t>(ti), e, key_words, msgs,
                                payload_arena,
                                &writers[p % static_cast<size_t>(S)]);
          });
    }
    for (int d = 0; d < S; ++d) {
      std::vector<uint8_t> frame =
          writers[static_cast<size_t>(d)].Finish(FrameType::kShuffleChunk,
                                                 me32, job_aux);
      shuffle_sent_bytes += static_cast<double>(frame.size());
      GUMBO_RETURN_IF_ERROR(tp->Send(me, d, std::move(frame)));
    }
  }

  // ---- Shuffle import: a fresh Shuffle over the same global task list,
  // fed from the S received chunks in shard order. Within one (task,
  // partition) pair the records arrive in their original emission order
  // (one source frame, walked in order); that plus the global task
  // indices is everything the partition sort's (task, emission)
  // tie-break observes, so the sorted partitions are byte-identical to
  // the single-process shuffle's.
  {
    mr::Shuffle imported(exec->tasks().size(), job.pack_messages);
    for (int s = 0; s < S; ++s) {
      GUMBO_ASSIGN_OR_RETURN(Received f,
                             ExpectFrame(tp, me, s, FrameType::kShuffleChunk));
      GUMBO_RETURN_IF_ERROR(DecodeShuffleChunk(&f.body, &imported));
    }
    exec->shuffle() = std::move(imported);
  }

  GUMBO_RETURN_IF_ERROR(exec->Partition(r));
  if (Status s = exec->RunReduces(owned_red); !s.ok()) return fail(s);
  exec->AccountReduces(owned_red);
  exec->FinalizeCounters();

  const size_t num_outputs = job.outputs.size();
  mr::JobStats& st = exec->stats();

  if (me != 0) {
    // ---- Worker epilogue: ship the owned partitions' output rows and
    // the owned-subset stats; outputs themselves stay empty (the replica
    // is refreshed by the round's kCommit frames).
    FrameWriter w;
    for (size_t p = 0; p < static_cast<size_t>(r); ++p) {
      if (!owned_red(p)) continue;
      std::vector<RelationBuilder> builders = exec->TakeReduceOutputs(p);
      w.U32(static_cast<uint32_t>(p));
      for (size_t oi = 0; oi < num_outputs; ++oi) {
        const mr::JobOutput& spec = job.outputs[oi];
        Relation frag(spec.dataset, spec.arity);
        frag.Adopt(std::move(builders[oi]));
        EncodeRows(frag, &w);
      }
    }
    // Not added to shuffle_sent_bytes: the coordinator counts epilogue
    // frames on receive, so each frame is charged exactly once.
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, 0, w.Finish(FrameType::kOutputFragment, me32, job_aux)));
    FrameWriter sw;
    EncodeJobStatsBody(st, exec->ReceivedMb(), shuffle_sent_bytes, &sw);
    GUMBO_RETURN_IF_ERROR(
        tp->Send(me, 0, sw.Finish(FrameType::kJobStats, me32, job_aux)));
    mr::Engine::JobResult partial;
    partial.stats = std::move(st);
    return partial;
  }

  // ---- Coordinator epilogue: collect fragments + stats from every
  // worker, merge the disjoint accounting slots, reconcile globally, and
  // assemble the outputs in ascending partition order — exactly the
  // concatenation Finish() performs in-process.
  struct RemoteFrag {
    std::vector<uint64_t> words;
    std::vector<uint64_t> fps;
  };
  // [p][oi]; only partitions owned by workers are filled.
  std::vector<std::vector<RemoteFrag>> remote(static_cast<size_t>(r));
  double wire_bytes_total = shuffle_sent_bytes;
  double received_mb = exec->ReceivedMb();
  for (int s = 1; s < S; ++s) {
    GUMBO_ASSIGN_OR_RETURN(Received frag,
                           ExpectFrame(tp, me, s, FrameType::kOutputFragment));
    wire_bytes_total += static_cast<double>(frag.bytes.size());
    FrameReader& frd = frag.body;
    while (frd.remaining() > 0) {
      uint32_t p = 0;
      GUMBO_RETURN_IF_ERROR(frd.ReadU32(&p));
      if (p >= static_cast<uint32_t>(r)) {
        return fail(Status::ParseError(
            "dist: output fragment names partition " + std::to_string(p) +
            " of " + std::to_string(r)));
      }
      std::vector<RemoteFrag>& frags = remote[p];
      frags.resize(num_outputs);
      for (size_t oi = 0; oi < num_outputs; ++oi) {
        RemoteFrag& f = frags[oi];
        GUMBO_RETURN_IF_ERROR(
            DecodeRows(&frd, job.outputs[oi].arity, &f.words, &f.fps));
      }
    }
    GUMBO_ASSIGN_OR_RETURN(Received stats,
                           ExpectFrame(tp, me, s, FrameType::kJobStats));
    wire_bytes_total += static_cast<double>(stats.bytes.size());
    double recv_mb = 0.0;
    double sent_bytes = 0.0;
    if (Status ms =
            MergeJobStatsBody(&stats.body, &st, &recv_mb, &sent_bytes);
        !ms.ok()) {
      return fail(ms);
    }
    received_mb += recv_mb;
    wire_bytes_total += sent_bytes;  // the worker's shuffle + fragment sends
  }

  // Global reconciliation — same invariant, same tolerance as the
  // single-process Finish().
  if (std::abs(received_mb - st.shuffle_mb) >
      1e-6 * std::max(1.0, st.shuffle_mb)) {
    return fail(Status::Internal(
        "job " + job.name +
        ": sharded map-side and reduce-side shuffle accounting diverged "
        "(map " +
        std::to_string(st.shuffle_mb) + " MB, reduce " +
        std::to_string(received_mb) + " MB)"));
  }

  mr::Engine::JobResult result;
  result.outputs.reserve(num_outputs);
  std::vector<std::vector<RelationBuilder>> own(static_cast<size_t>(r));
  for (size_t p = 0; p < static_cast<size_t>(r); ++p) {
    if (owned_red(p)) own[p] = exec->TakeReduceOutputs(p);
  }
  for (size_t oi = 0; oi < num_outputs; ++oi) {
    const mr::JobOutput& spec = job.outputs[oi];
    Relation out(spec.dataset, spec.arity);
    if (spec.bytes_per_tuple > 0.0) out.set_bytes_per_tuple(spec.bytes_per_tuple);
    out.set_representation_scale(exec->scale());
    for (size_t p = 0; p < static_cast<size_t>(r); ++p) {
      if (owned_red(p)) {
        out.Adopt(std::move(own[p][oi]));
      } else if (oi < remote[p].size()) {
        // Moved, not copied, while `out` is still empty.
        RemoteFrag& f = remote[p][oi];
        out.AdoptRaw(std::move(f.words), std::move(f.fps));
      }
    }
    if (spec.dedupe) {
      out.SortAndDedupe(&engine_->scheduler(), &ctx);
    }
    result.outputs.push_back(std::move(out));
  }

  st.dist_wire_mb += wire_bytes_total * kMbPerByte;
  result.stats = std::move(st);
  return result;
}

Result<mr::ProgramStats> ShardedRuntime::Execute(const mr::Program& program,
                                                 Database* db,
                                                 const SchedContext& ctx) const {
  const int S = cluster_.num_shards;
  const int me = cluster_.shard;
  Transport* tp = cluster_.transport;
  if (S <= 1) {
    // Degenerate cluster: the single-process runtime IS the semantics.
    return mr::Runtime(engine_).Execute(program, db, ctx);
  }
  if (tp == nullptr || tp->endpoints() < S) {
    return Status::InvalidArgument(
        "dist: cluster of " + std::to_string(S) +
        " shards needs a transport with as many endpoints");
  }

  // Jobs run sequentially in index order: the lock-step protocol keys
  // frames by channel order, so two jobs in flight would interleave.
  // Deterministic regardless — the single-process runtime commits in job
  // order too, so results cannot differ.
  auto run_round = [&](const std::vector<size_t>& round,
                       std::vector<mr::Engine::JobResult>* results)
      -> Result<int> {
    for (size_t gj : round) {
      GUMBO_ASSIGN_OR_RETURN(
          mr::Engine::JobResult r,
          RunJob(program.job(gj), *db, ctx, static_cast<uint32_t>(gj)));
      results->push_back(std::move(r));
    }
    return 1;
  };
  // Round barrier: the coordinator commits in job order, broadcasting
  // each job's committed relations so every replica re-synchronizes
  // before the next round reads; workers adopt them. Each shard accounts
  // its own stats (a worker's are its local shares).
  auto commit = [&](size_t job, mr::Engine::JobResult* r) -> Status {
    if (me != 0) {
      GUMBO_ASSIGN_OR_RETURN(Received f,
                             ExpectFrame(tp, me, 0, FrameType::kCommit));
      uint32_t n = 0;
      GUMBO_RETURN_IF_ERROR(f.body.ReadU32(&n));
      for (uint32_t i = 0; i < n; ++i) {
        GUMBO_ASSIGN_OR_RETURN(Relation rel, DecodeRelationBody(&f.body));
        db->Put(std::move(rel));
      }
      return Status::Ok();
    }
    FrameWriter w;
    w.U32(static_cast<uint32_t>(r->outputs.size()));
    for (const Relation& out : r->outputs) EncodeRelationBody(out, &w);
    std::vector<uint8_t> frame =
        w.Finish(FrameType::kCommit, 0, static_cast<uint32_t>(job));
    r->stats.dist_wire_mb += static_cast<double>(frame.size()) *
                             static_cast<double>(S - 1) * kMbPerByte;
    r->stats.dist_cost =
        engine_->config().costs.transfer * r->stats.dist_wire_mb;
    // The last receiver takes the frame itself; the others get copies.
    for (int s = 1; s < S; ++s) {
      GUMBO_RETURN_IF_ERROR(
          tp->Send(0, s, s == S - 1 ? std::move(frame) : frame));
    }
    for (Relation& out : r->outputs) db->Put(std::move(out));
    return Status::Ok();
  };
  return mr::RunRounds(program, engine_->config(), ctx, run_round, commit);
}

}  // namespace gumbo::dist
