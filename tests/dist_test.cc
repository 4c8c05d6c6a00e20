// Tests for the sharded execution stack (DESIGN.md §13): wire frames,
// transports, shuffle export/import, and the oracle of the whole design —
// sharded runs (in-process threads and real worker processes) are
// byte-identical (words + fingerprints) to the single-process runtime at
// any shard count.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/config.h"
#include "common/dictionary.h"
#include "data/workloads.h"
#include "dist/sharded.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/map_output.h"
#include "mr/shuffle.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "serve/service.h"
#include "test_util.h"

#ifndef GUMBO_WORKER_BIN
#define GUMBO_WORKER_BIN ""
#endif

namespace gumbo::dist {
namespace {

using ::gumbo::testing::MakeRelation;

// ---- Wire frames ------------------------------------------------------------

TEST(WireTest, FrameRoundTripsTypedFields) {
  FrameWriter w;
  w.U32(7);
  w.U64(0xDEADBEEFCAFEF00DULL);
  w.F64(-1234.5);
  w.Str("hello wire");
  const std::vector<uint64_t> words = {1, 2, 3};
  w.Words(words.data(), words.size());
  const std::vector<uint8_t> frame =
      w.Finish(FrameType::kJobStats, /*src_shard=*/3, /*aux=*/9);
  EXPECT_EQ(w.body_bytes(), 0u);  // writer reusable after Finish

  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  EXPECT_EQ(rd->type(), FrameType::kJobStats);
  EXPECT_EQ(rd->src_shard(), 3u);
  EXPECT_EQ(rd->aux(), 9u);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string s;
  std::vector<uint64_t> back;
  ASSERT_OK(rd->ReadU32(&u32));
  ASSERT_OK(rd->ReadU64(&u64));
  ASSERT_OK(rd->ReadF64(&f64));
  ASSERT_OK(rd->ReadStr(&s));
  ASSERT_OK(rd->ReadWords(words.size(), &back));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(f64, -1234.5);
  EXPECT_EQ(s, "hello wire");
  EXPECT_EQ(back, words);
  EXPECT_EQ(rd->remaining(), 0u);
  // Over-reads are bounds-checked, not UB.
  EXPECT_FALSE(rd->ReadU32(&u32).ok());
}

// The nasty-value gauntlet: negatives, interned string ids (high-bit
// words at kStringBase), wide rows (heap Tuples), and 0-arity rows must
// all survive a relation round-trip with words AND stored fingerprints
// bit-for-bit intact.
TEST(WireTest, RelationRoundTripsNastyValues) {
  Relation rel("nasty", 4);
  Dictionary* dict = &Dictionary::Global();
  {
    Tuple t;
    t.PushBack(Value::Int(-1));
    t.PushBack(Value::Int(std::numeric_limits<int32_t>::min()));
    t.PushBack(dict->Intern("wire-string-a"));
    t.PushBack(Value::Int(0));
    ASSERT_OK(rel.Add(t));
  }
  {
    Tuple t;
    t.PushBack(dict->Intern("wire-string-b"));
    t.PushBack(dict->Intern(""));
    t.PushBack(Value::Int(-987654321));
    t.PushBack(dict->Intern("wire-string-a"));
    ASSERT_OK(rel.Add(t));
  }
  rel.set_bytes_per_tuple(40.0);
  rel.set_representation_scale(250000.0);

  const std::vector<uint8_t> frame = EncodeRelationFrame(rel, /*src=*/1);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  EXPECT_EQ(rd->type(), FrameType::kRelation);
  auto back = DecodeRelationBody(&*rd);
  ASSERT_OK(back);
  EXPECT_EQ(back->name(), "nasty");
  EXPECT_EQ(back->arity(), 4u);
  EXPECT_EQ(back->words(), rel.words());
  EXPECT_EQ(back->fingerprints(), rel.fingerprints());
  EXPECT_EQ(back->bytes_per_tuple(), 40.0);
  EXPECT_EQ(back->representation_scale(), 250000.0);
  // The decoded string ids still resolve.
  EXPECT_EQ(back->view(0)[2].string_id(), dict->Intern("wire-string-a").string_id());
}

TEST(WireTest, RelationRoundTripsZeroArityRows) {
  Relation rel("unit", 0);
  ASSERT_OK(rel.Add(Tuple{}));
  ASSERT_OK(rel.Add(Tuple{}));
  const std::vector<uint8_t> frame = EncodeRelationFrame(rel, /*src=*/0);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  auto back = DecodeRelationBody(&*rd);
  ASSERT_OK(back);
  EXPECT_EQ(back->arity(), 0u);
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(back->fingerprints(), rel.fingerprints());
}

TEST(WireTest, RejectsTruncatedForeignSkewedAndCorruptFrames) {
  const std::vector<uint8_t> frame =
      EncodeRelationFrame(MakeRelation("r", 2, {{1, 2}, {3, -4}}), 0);
  ASSERT_GT(frame.size(), kFrameHeaderBytes);

  {  // truncated: shorter than the header
    std::vector<uint8_t> t(frame.begin(), frame.begin() + 10);
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // truncated: header promises more body than present
    std::vector<uint8_t> t(frame.begin(), frame.end() - 1);
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // foreign magic (offset 0)
    std::vector<uint8_t> t = frame;
    t[0] ^= 0xFF;
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // version skew (offset 4)
    std::vector<uint8_t> t = frame;
    t[4] += 1;
    EXPECT_FALSE(FrameReader::Parse(t).ok());
  }
  {  // corrupt body -> checksum mismatch
    std::vector<uint8_t> t = frame;
    t[kFrameHeaderBytes] ^= 0x01;
    auto r = FrameReader::Parse(t);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  // The untouched frame still parses (the mutations above were the
  // problem, not the fixture).
  EXPECT_OK(FrameReader::Parse(frame));
}

// A row count no body could hold is a ParseError, not an allocation:
// the reader checks the words are present before sizing any vector.
TEST(WireTest, RelationRejectsOversizedRowCount) {
  for (const uint64_t rows : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    FrameWriter w;
    w.Str("r");
    w.U32(2);      // arity
    w.F64(0.0);    // bytes_per_tuple
    w.F64(1.0);    // representation scale
    w.U64(rows);   // no words follow
    const std::vector<uint8_t> frame = w.Finish(FrameType::kRelation, 0);
    auto rd = FrameReader::Parse(frame);
    ASSERT_OK(rd);
    auto rel = DecodeRelationBody(&*rd);
    ASSERT_FALSE(rel.ok()) << rows;
    EXPECT_EQ(rel.status().code(), StatusCode::kParseError) << rows;
  }
}

TEST(WireTest, ErrorFrameCarriesStatus) {
  const Status s = Status::Unavailable("shard 2 lost its replica");
  const std::vector<uint8_t> frame = EncodeErrorFrame(s, /*src=*/2);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  ASSERT_EQ(rd->type(), FrameType::kError);
  const Status back = DecodeErrorBody(&*rd);
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
  EXPECT_NE(back.ToString().find("shard 2 lost its replica"),
            std::string::npos);
}

// A job-stats share with a distinct value in every counter and slot, so a
// codec that swaps two fields (say shuffle_records and shuffle_messages)
// cannot round-trip it.
mr::JobStats DistinctShare() {
  mr::JobStats st;
  int i = 0;
  mr::ForEachCounter([&](auto, auto field) {
    using T = std::remove_reference_t<decltype(st.*field)>;
    st.*field = static_cast<T>(++i);
  });
  st.map_task_costs = {101.5, 102.5, 103.5};
  st.reduce_task_costs = {201.5, 202.5};
  st.inputs.resize(2);
  st.inputs[0].output_mb = 301.5;
  st.inputs[0].metadata_mb = 302.5;
  st.inputs[1].output_mb = 303.5;
  st.inputs[1].metadata_mb = 304.5;
  return st;
}

std::vector<uint8_t> JobStatsFrame(const mr::JobStats& st) {
  FrameWriter w;
  EncodeJobStatsBody(st, /*received_mb=*/401.5, /*sent_bytes=*/402.5, &w);
  return w.Finish(FrameType::kJobStats, /*src_shard=*/1);
}

// The coordinator's side of a job the share belongs to: same task,
// partition and input counts, every value zero.
mr::JobStats ZeroShaped(const mr::JobStats& share) {
  mr::JobStats st;
  st.map_task_costs.assign(share.map_task_costs.size(), 0.0);
  st.reduce_task_costs.assign(share.reduce_task_costs.size(), 0.0);
  st.inputs.resize(share.inputs.size());
  return st;
}

TEST(WireTest, JobStatsRoundTripsEveryShippedField) {
  const mr::JobStats sent = DistinctShare();
  const std::vector<uint8_t> frame = JobStatsFrame(sent);
  auto rd = FrameReader::Parse(frame);
  ASSERT_OK(rd);
  mr::JobStats got = ZeroShaped(sent);
  double received_mb = 0.0;
  double sent_bytes = 0.0;
  ASSERT_OK(MergeJobStatsBody(&*rd, &got, &received_mb, &sent_bytes));
  EXPECT_EQ(received_mb, 401.5);
  EXPECT_EQ(sent_bytes, 402.5);
  size_t shipped = 0;
  mr::ForEachCounter([&](auto c, auto field) {
    if (decltype(c)::merge == mr::Merge::kSum) {
      ++shipped;
      EXPECT_EQ(got.*field, sent.*field) << c.name;
    } else {
      // Replicated and coordinator counters never travel.
      EXPECT_EQ(got.*field, 0) << c.name;
    }
  });
  EXPECT_EQ(got.map_task_costs, sent.map_task_costs);
  EXPECT_EQ(got.reduce_task_costs, sent.reduce_task_costs);
  for (size_t i = 0; i < sent.inputs.size(); ++i) {
    EXPECT_EQ(got.inputs[i].output_mb, sent.inputs[i].output_mb);
    EXPECT_EQ(got.inputs[i].metadata_mb, sent.inputs[i].metadata_mb);
  }
  // Every shipped value is 8 bytes: the counters, received MB and sent
  // bytes, and the slots; plus three 4-byte count prefixes.
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + 8 * (shipped + 2) + 3 * 4 +
                              8 * (3 + 2 + 2 * 2));
}

// `frame` with its body cut or padded (0xAB bytes) to `body_bytes` and its
// header's length and checksum patched to match: a well-formed frame that
// only the kJobStats body decoder can reject.
std::vector<uint8_t> Reseal(std::vector<uint8_t> frame, size_t body_bytes) {
  frame.resize(kFrameHeaderBytes + body_bytes, 0xAB);
  const uint64_t n = body_bytes;
  const uint64_t sum =
      WireChecksum(frame.data() + kFrameHeaderBytes, body_bytes);
  std::memcpy(frame.data() + 16, &n, sizeof(n));    // body_bytes field
  std::memcpy(frame.data() + 24, &sum, sizeof(sum));  // checksum field
  return frame;
}

Status DecodeJobStatsFrame(const std::vector<uint8_t>& frame) {
  GUMBO_ASSIGN_OR_RETURN(FrameReader rd, FrameReader::Parse(frame));
  mr::JobStats got = ZeroShaped(DistinctShare());
  double received_mb = 0.0;
  double sent_bytes = 0.0;
  return MergeJobStatsBody(&rd, &got, &received_mb, &sent_bytes);
}

TEST(WireTest, JobStatsRejectsTruncatedAndTrailingBodies) {
  const std::vector<uint8_t> frame = JobStatsFrame(DistinctShare());
  const size_t body = frame.size() - kFrameHeaderBytes;
  ASSERT_OK(DecodeJobStatsFrame(Reseal(frame, body)));
  for (size_t len = 0; len < body; ++len) {
    const Status s = DecodeJobStatsFrame(Reseal(frame, len));
    EXPECT_EQ(s.code(), StatusCode::kParseError) << len << " of " << body;
  }
  // A skewed worker shipping one extra byte or one extra counter.
  for (size_t extra : {1, 8}) {
    const Status s = DecodeJobStatsFrame(Reseal(frame, body + extra));
    EXPECT_EQ(s.code(), StatusCode::kParseError) << extra;
  }
  // A worker whose share splits the job differently (here: a count prefix
  // promising 2^32-1 map-cost slots) is rejected before any slot is read.
  size_t shipped = 0;
  mr::ForEachCounter([&](auto c, auto) {
    if (decltype(c)::merge == mr::Merge::kSum) ++shipped;
  });
  std::vector<uint8_t> huge = frame;
  const uint32_t n = 0xFFFFFFFFu;
  std::memcpy(huge.data() + kFrameHeaderBytes + 8 * (shipped + 2), &n,
              sizeof(n));
  EXPECT_EQ(DecodeJobStatsFrame(Reseal(huge, body)).code(),
            StatusCode::kParseError);
}

// A frame whose body is `len` distinct-pattern bytes, correctly sealed.
std::vector<uint8_t> PatternFrame(size_t len) {
  std::vector<uint8_t> frame =
      Reseal(FrameWriter().Finish(FrameType::kRelation, 0), len);
  for (size_t i = 0; i < len; ++i) {
    frame[kFrameHeaderBytes + i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return Reseal(std::move(frame), len);
}

void ExpectRejected(const std::vector<uint8_t>& frame) {
  auto r = FrameReader::Parse(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// Body lengths 0..80 run the checksum's four-lane stripes (two whole
// 32-byte stripes at most), its word tail and its byte tail. Every single
// flipped bit and every swap of two distinct 8-byte words is caught.
TEST(WireTest, ChecksumRejectsEveryBitFlipAndWordSwap) {
  for (size_t len = 0; len <= 80; ++len) {
    SCOPED_TRACE("body length " + std::to_string(len));
    const std::vector<uint8_t> frame = PatternFrame(len);
    ASSERT_OK(FrameReader::Parse(frame));
    for (size_t bit = 0; bit < 8 * len; ++bit) {
      std::vector<uint8_t> t = frame;
      t[kFrameHeaderBytes + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ExpectRejected(t);
    }
    for (size_t a = 0; a + 16 <= len; a += 8) {
      for (size_t b = a + 8; b + 8 <= len; b += 8) {
        std::vector<uint8_t> t = frame;
        std::swap_ranges(t.begin() + kFrameHeaderBytes + a,
                         t.begin() + kFrameHeaderBytes + a + 8,
                         t.begin() + kFrameHeaderBytes + b);
        ExpectRejected(t);
      }
    }
  }
}

// A frame from a version-2 build — FNV-1a 64 checksum, otherwise the same
// header — is refused for its version, even though it is intact.
TEST(WireTest, RejectsSealedVersionTwoFrame) {
  std::vector<uint8_t> frame =
      EncodeRelationFrame(MakeRelation("r", 2, {{1, 2}, {3, -4}}), 0);
  uint64_t fnv = 0xcbf29ce484222325ull;
  for (size_t i = kFrameHeaderBytes; i < frame.size(); ++i) {
    fnv = (fnv ^ frame[i]) * 0x100000001b3ull;
  }
  const uint16_t version = 2;
  std::memcpy(frame.data() + 4, &version, sizeof(version));
  std::memcpy(frame.data() + 24, &fnv, sizeof(fnv));
  auto r = FrameReader::Parse(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().ToString().find("version 2"), std::string::npos)
      << r.status();
}

// ---- Shuffle export / import ------------------------------------------------

// One exported record, flattened for comparison.
struct FlatRecord {
  uint32_t key_arity = 0;
  uint64_t fingerprint = 0;
  double wire_bytes = 0.0;
  std::vector<uint64_t> key;
  // Per message: tag, aux, payload words, wire bytes.
  std::vector<std::tuple<uint32_t, uint32_t, std::vector<uint64_t>, double>>
      msgs;
  bool operator==(const FlatRecord& o) const {
    return key_arity == o.key_arity && fingerprint == o.fingerprint &&
           wire_bytes == o.wire_bytes && key == o.key && msgs == o.msgs;
  }
};

std::vector<FlatRecord> FlattenTask(const mr::Shuffle& sh, size_t ti) {
  std::vector<FlatRecord> out;
  sh.ForEachTaskRecord(
      ti, [&](const mr::Shuffle::KeyEntry& e, const uint64_t* key_words,
              const mr::Message* msgs, const uint64_t* payload_arena) {
        FlatRecord r;
        r.key_arity = e.key_arity;
        r.fingerprint = e.fingerprint;
        r.wire_bytes = e.wire_bytes;
        r.key.assign(key_words, key_words + e.key_arity);
        for (uint32_t i = 0; i < e.msg_count; ++i) {
          const mr::Message& m = msgs[i];
          const uint64_t* p = m.payload_words(payload_arena);
          r.msgs.emplace_back(m.tag, m.aux,
                              std::vector<uint64_t>(p, p + m.payload_size),
                              m.wire_bytes);
        }
        out.push_back(std::move(r));
      });
  return out;
}

// Exporting every record of one shuffle and importing it into a fresh one
// (the sharded runtime's exchange path, minus the transport) must
// reproduce keys, fingerprints, payloads — including heap-spilled ones —
// and wire accounting verbatim.
// Two map tasks' records: a spilled payload, a packed pair, an inline
// payload, and a key shared across tasks.
mr::Shuffle TwoTaskShuffle(bool pack) {
  mr::Shuffle src(/*num_map_tasks=*/2, pack);
  {
    mr::MapOutputBuffer buf;
    Tuple spilled;  // 3 values > Message::kInlinePayloadValues -> arena
    spilled.PushBack(Value::Int(-7));
    spilled.PushBack(Value::Int(1ull << 40));
    spilled.PushBack(Dictionary::Global().Intern("spill"));
    buf.Emit(Tuple{Value::Int(5)}, /*tag=*/1, /*aux=*/0, spilled, 34.0);
    buf.Emit(Tuple{Value::Int(5)}, /*tag=*/0, /*aux=*/3, 14.0);  // packed pair
    buf.Emit(Tuple{Value::Int(-5)}, /*tag=*/2, /*aux=*/1,
             Tuple{Value::Int(9)}, 24.0);  // inline payload
    EXPECT_OK(src.AddTaskOutput(0, std::move(buf)));
  }
  {
    mr::MapOutputBuffer buf;
    buf.Emit(Tuple{Value::Int(5)}, /*tag=*/0, /*aux=*/7, 14.0);
    EXPECT_OK(src.AddTaskOutput(1, std::move(buf)));
  }
  return src;
}

// Every record of `sh`, task by task, as one kShuffleChunk frame.
std::vector<uint8_t> ShuffleChunkFrame(const mr::Shuffle& sh, size_t tasks) {
  FrameWriter w;
  for (size_t ti = 0; ti < tasks; ++ti) {
    sh.ForEachTaskRecord(
        ti, [&](const mr::Shuffle::KeyEntry& e, const uint64_t* key_words,
                const mr::Message* msgs, const uint64_t* payload_arena) {
          EncodeShuffleRecord(static_cast<uint32_t>(ti), e, key_words, msgs,
                              payload_arena, &w);
        });
  }
  return w.Finish(FrameType::kShuffleChunk, /*src_shard=*/1);
}

// Exporting every record of one shuffle into a kShuffleChunk frame and
// importing the frame into a fresh shuffle (the sharded runtime's
// exchange path, minus the transport) must reproduce keys, fingerprints,
// payloads — including heap-spilled ones — and wire accounting verbatim.
TEST(ShuffleWireTest, ExportImportRoundTripsRecords) {
  for (const bool pack : {true, false}) {
    SCOPED_TRACE(pack ? "packed" : "unpacked");
    const mr::Shuffle src = TwoTaskShuffle(pack);
    const std::vector<uint8_t> frame = ShuffleChunkFrame(src, 2);
    auto rd = FrameReader::Parse(frame);
    ASSERT_OK(rd);
    mr::Shuffle dst(/*num_map_tasks=*/2, pack);
    ASSERT_OK(DecodeShuffleChunk(&*rd, &dst));

    for (size_t ti = 0; ti < 2; ++ti) {
      EXPECT_EQ(FlattenTask(src, ti), FlattenTask(dst, ti))
          << "task " << ti;
    }
  }
}

// ---- Decoder fuzzing ---------------------------------------------------------

// Seeded byte mutations of valid frames: flips, truncations, extensions,
// and huge count fields, resealed so that the body decoders see them.
// Each must end in a typed Status or a well-formed decode — never a
// crash, an over-read, or an allocation sized by garbage (run under
// ASan and UBSan in CI).
TEST(WireFuzzTest, MutatedFramesDecodeOrFailTyped) {
  enum Kind { kRelationBody, kJobStatsBody, kShuffleBody, kErrorBody };
  Relation rel("fuzz", 3);
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_OK(rel.Add(Tuple{Value::Int(i), Value::Int(-i),
                            Dictionary::Global().Intern("fz")}));
  }
  const std::vector<std::pair<Kind, std::vector<uint8_t>>> seeds = {
      {kRelationBody, EncodeRelationFrame(rel, 0)},
      {kJobStatsBody, JobStatsFrame(DistinctShare())},
      {kShuffleBody, ShuffleChunkFrame(TwoTaskShuffle(true), 2)},
      {kErrorBody, EncodeErrorFrame(Status::Internal("boom"), 0)},
  };
  constexpr uint64_t kHuge[] = {0xFFFFFFFFull, 0x80000000ull,
                                uint64_t{1} << 40, uint64_t{1} << 62,
                                ~uint64_t{0}};

  std::mt19937_64 rng(0x5EED5EEDull);
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  size_t decoded = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const auto& [kind, seed] = seeds[below(seeds.size())];
    std::vector<uint8_t> frame = seed;
    size_t body = frame.size() - kFrameHeaderBytes;
    const int mutations = 1 + static_cast<int>(below(3));
    for (int m = 0; m < mutations; ++m) {
      switch (below(4)) {
        case 0:  // flip one bit
          if (body > 0) {
            frame[kFrameHeaderBytes + below(body)] ^=
                static_cast<uint8_t>(1u << below(8));
          }
          break;
        case 1:  // truncate
          body = below(body + 1);
          break;
        case 2:  // extend with random bytes
          for (size_t n = 1 + below(24); n > 0; --n) {
            frame.push_back(static_cast<uint8_t>(rng()));
          }
          body = frame.size() - kFrameHeaderBytes;
          break;
        default:  // a huge 4- or 8-byte count at any offset
          if (body > 0) {
            const size_t width = below(2) == 0 ? 4 : 8;
            const size_t at = below(body);
            const uint64_t v = kHuge[below(std::size(kHuge))];
            std::memcpy(frame.data() + kFrameHeaderBytes + at, &v,
                        std::min(width, body - at));
          }
          break;
      }
      frame.resize(kFrameHeaderBytes + body);
    }
    frame = Reseal(std::move(frame), body);
    auto rd = FrameReader::Parse(frame);
    ASSERT_OK(rd) << "iteration " << iter;
    Status s;
    switch (kind) {
      case kRelationBody: {
        auto got = DecodeRelationBody(&*rd);
        if (got.ok()) {
          EXPECT_EQ(got->words().size(), got->size() * got->arity());
        }
        s = got.status();
        break;
      }
      case kJobStatsBody: {
        mr::JobStats into = ZeroShaped(DistinctShare());
        double received_mb = 0.0;
        double sent_bytes = 0.0;
        s = MergeJobStatsBody(&*rd, &into, &received_mb, &sent_bytes);
        break;
      }
      case kShuffleBody: {
        mr::Shuffle into(/*num_map_tasks=*/2, /*pack_messages=*/true);
        s = DecodeShuffleChunk(&*rd, &into);
        if (s.ok()) {
          EXPECT_EQ(rd->remaining(), 0u);
        }
        break;
      }
      case kErrorBody: {
        // A decoded error frame carries any known code; only a malformed
        // body may come back as ParseError.
        const Status carried = DecodeErrorBody(&*rd);
        EXPECT_LE(static_cast<int>(carried.code()),
                  static_cast<int>(StatusCode::kUnavailable));
        s = carried.code() == StatusCode::kParseError ? carried : Status::Ok();
        break;
      }
    }
    if (s.ok()) {
      ++decoded;
    } else {
      ++rejected;
      EXPECT_TRUE(s.code() == StatusCode::kParseError ||
                  s.code() == StatusCode::kInternal)
          << "iteration " << iter << ": " << s;
    }
  }
  // Both outcomes happen: the mutations are neither all fatal nor all
  // harmless.
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// ---- Transports -------------------------------------------------------------

TEST(TransportTest, InProcDeliversPerChannelInOrder) {
  InProcTransport tp(3);
  EXPECT_EQ(tp.endpoints(), 3);
  ASSERT_OK(tp.Send(0, 2, {1}));
  ASSERT_OK(tp.Send(1, 2, {2}));
  ASSERT_OK(tp.Send(0, 2, {3}));
  // Channels are independent; within (0 -> 2), send order holds.
  auto a = tp.Recv(2, 0, /*timeout_ms=*/1000);
  auto b = tp.Recv(2, 1, /*timeout_ms=*/1000);
  auto c = tp.Recv(2, 0, /*timeout_ms=*/1000);
  ASSERT_OK(a);
  ASSERT_OK(b);
  ASSERT_OK(c);
  EXPECT_EQ((*a)[0], 1);
  EXPECT_EQ((*b)[0], 2);
  EXPECT_EQ((*c)[0], 3);
}

TEST(TransportTest, InProcRecvTimesOut) {
  InProcTransport tp(2);
  auto r = tp.Recv(1, 0, /*timeout_ms=*/10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(TransportTest, MmapRoundTripsFramesThroughADirectory) {
  char dir_template[] = "/tmp/gumbo_dist_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  {
    // Two transport instances over one mailbox, as two processes would.
    MmapTransport sender(dir, 2);
    MmapTransport receiver(dir, 2);
    const std::vector<uint8_t> f1 = {0xAA, 0xBB, 0xCC};
    const std::vector<uint8_t> f2(4096, 0x5E);  // multi-page payload
    ASSERT_OK(sender.Send(0, 1, f1));
    ASSERT_OK(sender.Send(0, 1, f2));
    auto r1 = receiver.Recv(1, 0, /*timeout_ms=*/5000);
    auto r2 = receiver.Recv(1, 0, /*timeout_ms=*/5000);
    ASSERT_OK(r1);
    ASSERT_OK(r2);
    EXPECT_EQ(*r1, f1);
    EXPECT_EQ(*r2, f2);
    auto empty = receiver.Recv(1, 0, /*timeout_ms=*/10);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), StatusCode::kDeadlineExceeded);
  }
  std::filesystem::remove_all(dir);
}

// ---- Sharded execution: the byte-identity oracle ----------------------------

cost::ClusterConfig TestCluster() {
  cost::ClusterConfig c;
  c.split_mb = 0.0005;       // many map tasks even on tiny samples
  c.mb_per_reducer = 0.0005; // several reduce partitions
  return c;
}

Result<data::Workload> SmallWorkload(const std::string& name) {
  data::GeneratorConfig g;
  g.tuples = 400;
  g.representation_scale = 1.0;
  g.seed = 7;
  if (name == "A1") return data::MakeA(1, g);
  if (name == "A3") return data::MakeA(3, g);
  if (name == "B1") return data::MakeB(1, g);
  return Status::InvalidArgument("unknown workload " + name);
}

// name -> (words, fingerprints) of every query output.
using OutputBytes =
    std::map<std::string,
             std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>;

OutputBytes RunWorkload(const std::string& wl, int local_shards,
                        double* dist_wire_mb = nullptr) {
  OutputBytes out;
  auto w = SmallWorkload(wl);
  EXPECT_OK(w);
  if (!w.ok()) return out;
  const cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  EXPECT_OK(plan);
  if (!plan.ok()) return out;
  mr::Engine engine(config);
  plan::ExecutionContext ectx;
  ectx.local_shards = local_shards;
  auto result = plan::ExecutePlan(*plan, &engine, &w->db, ectx);
  EXPECT_OK(result);
  if (!result.ok()) return out;
  if (dist_wire_mb != nullptr) *dist_wire_mb = result->metrics.dist_wire_mb;
  for (const auto& q : w->query.subqueries()) {
    auto rel = w->db.Get(q.output());
    EXPECT_OK(rel);
    if (!rel.ok()) continue;
    out[q.output()] = {(*rel)->words(), (*rel)->fingerprints()};
  }
  return out;
}

TEST(ShardedTest, ByteIdenticalToSingleProcessAtAnyShardCount) {
  for (const std::string wl : {"A1", "A3", "B1"}) {
    const OutputBytes reference = RunWorkload(wl, /*local_shards=*/1);
    ASSERT_FALSE(reference.empty()) << wl;
    for (const int shards : {2, 3, 4}) {
      SCOPED_TRACE(wl + " at " + std::to_string(shards) + " shards");
      double wire_mb = 0.0;
      const OutputBytes sharded = RunWorkload(wl, shards, &wire_mb);
      EXPECT_EQ(sharded, reference);
      // Real frames crossed the (in-process) wire and were charged.
      EXPECT_GT(wire_mb, 0.0);
    }
  }
}

// The merged job accounting of a sharded run equals the single-process
// run's, walked over the counter table: every kSum and kReplicated
// counter, every input's (N_i, M_i, Mhat_i, m_i), and every per-task cost
// slot. Coordinator-only counters (the wire bytes) and wall-clock
// counters are skipped.
TEST(ShardedTest, EveryDeterministicCounterIsShardCountInvariant) {
  auto stats_at = [](const std::string& wl, int shards) {
    mr::ProgramStats stats;
    auto w = SmallWorkload(wl);
    EXPECT_OK(w);
    if (!w.ok()) return stats;
    const cost::ClusterConfig config = TestCluster();
    plan::Planner planner(config, plan::PlannerOptions{});
    auto plan = planner.Plan(w->query, w->db);
    EXPECT_OK(plan);
    if (!plan.ok()) return stats;
    mr::Engine engine(config);
    plan::ExecutionContext ectx;
    ectx.local_shards = shards;
    auto result = plan::ExecutePlan(*plan, &engine, &w->db, ectx);
    EXPECT_OK(result);
    if (result.ok()) stats = std::move(result->stats);
    return stats;
  };
  for (const std::string wl : {"A1", "A3", "B1"}) {
    const mr::ProgramStats reference = stats_at(wl, 1);
    ASSERT_FALSE(reference.jobs.empty()) << wl;
    for (const int shards : {2, 3, 4}) {
      SCOPED_TRACE(wl + " at " + std::to_string(shards) + " shards");
      const mr::ProgramStats sharded = stats_at(wl, shards);
      ASSERT_EQ(sharded.jobs.size(), reference.jobs.size());
      for (size_t j = 0; j < reference.jobs.size(); ++j) {
        const mr::JobStats& want = reference.jobs[j];
        const mr::JobStats& got = sharded.jobs[j];
        SCOPED_TRACE("job " + want.job_name);
        size_t checked = 0;
        mr::ForEachCounter([&](auto c, auto field) {
          if (decltype(c)::merge == mr::Merge::kCoordinator ||
              !decltype(c)::deterministic) {
            return;
          }
          ++checked;
          EXPECT_EQ(got.*field, want.*field) << c.name;
        });
        EXPECT_GT(checked, 0u);
        ASSERT_EQ(got.inputs.size(), want.inputs.size());
        for (size_t i = 0; i < want.inputs.size(); ++i) {
          EXPECT_EQ(got.inputs[i].dataset, want.inputs[i].dataset);
          EXPECT_EQ(got.inputs[i].input_mb, want.inputs[i].input_mb) << i;
          EXPECT_EQ(got.inputs[i].output_mb, want.inputs[i].output_mb) << i;
          EXPECT_EQ(got.inputs[i].metadata_mb, want.inputs[i].metadata_mb)
              << i;
          EXPECT_EQ(got.inputs[i].num_map_tasks, want.inputs[i].num_map_tasks)
              << i;
        }
        EXPECT_EQ(got.map_task_costs, want.map_task_costs);
        EXPECT_EQ(got.reduce_task_costs, want.reduce_task_costs);
      }
    }
  }
}

TEST(ShardedTest, SingleShardChargesNoWireBytes) {
  double wire_mb = -1.0;
  RunWorkload("A1", /*local_shards=*/1, &wire_mb);
  EXPECT_EQ(wire_mb, 0.0);
}

// ExecutionContext's cluster branch (a borrowed Cluster handle, the path
// the worker binary takes) must behave exactly like local_shards.
TEST(ShardedTest, ExplicitClusterMatchesLocalHarness) {
  const OutputBytes reference = RunWorkload("A3", /*local_shards=*/1);
  ASSERT_FALSE(reference.empty());

  const int shards = 3;
  InProcTransport tp(shards);
  std::vector<std::optional<OutputBytes>> results(shards);
  std::vector<std::thread> threads;
  for (int s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      auto w = SmallWorkload("A3");
      ASSERT_OK(w);
      const cost::ClusterConfig config = TestCluster();
      plan::Planner planner(config, plan::PlannerOptions{});
      auto plan = planner.Plan(w->query, w->db);
      ASSERT_OK(plan);
      mr::Engine engine(config);
      Cluster cluster{&tp, s, shards};
      plan::ExecutionContext ectx;
      ectx.cluster = &cluster;
      auto result = plan::ExecutePlan(*plan, &engine, &w->db, ectx);
      ASSERT_OK(result);
      OutputBytes out;
      for (const auto& q : w->query.subqueries()) {
        auto rel = w->db.Get(q.output());
        ASSERT_OK(rel);
        out[q.output()] = {(*rel)->words(), (*rel)->fingerprints()};
      }
      results[s] = std::move(out);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every replica — coordinator and workers — committed the same bytes.
  for (int s = 0; s < shards; ++s) {
    ASSERT_TRUE(results[s].has_value()) << "shard " << s;
    EXPECT_EQ(*results[s], reference) << "shard " << s;
  }
}

// ExecutionContext::overrides composes with sharding: shadowing a relation
// through the overlay must produce, at every shard count, exactly the
// bytes of a run over a database where that relation was replaced.
TEST(ShardedTest, OverridesMatchReplacedRelationsAtAnyShardCount) {
  auto w = SmallWorkload("A3");
  ASSERT_OK(w);
  const cost::ClusterConfig config = TestCluster();
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  ASSERT_OK(plan);
  mr::Engine engine(config);

  // Every other guard row: a strict, non-empty subset.
  const std::string guard = w->query.subqueries()[0].guard().relation();
  const Relation* full = w->db.Get(guard).value();
  Relation half(guard, full->arity());
  const std::vector<Tuple> rows = full->ToTuples();
  for (size_t i = 0; i < rows.size(); i += 2) ASSERT_OK(half.Add(rows[i]));
  Database overrides;
  overrides.Put(half);
  Database replaced = w->db;
  replaced.Put(half);

  auto run = [&](const Database& base, const Database* ov, int shards) {
    plan::ExecutionContext ectx;
    ectx.overrides = ov;
    ectx.local_shards = shards;
    Database outputs;
    OutputBytes out;
    auto result =
        plan::ExecutePlanOnSnapshot(*plan, &engine, base, &outputs, ectx);
    EXPECT_OK(result);
    if (!result.ok()) return out;
    for (const std::string& name : plan->outputs) {
      const Relation* rel = outputs.Get(name).value();
      out[name] = {rel->words(), rel->fingerprints()};
    }
    return out;
  };
  const OutputBytes reference = run(replaced, nullptr, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_NE(reference, run(w->db, nullptr, 1));  // the override matters
  for (const int shards : {1, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    EXPECT_EQ(run(w->db, &overrides, shards), reference);
  }
  // The base and the overrides are only ever read.
  EXPECT_EQ(w->db.Get(guard).value()->size(), rows.size());
  EXPECT_EQ(overrides.Get(guard).value()->size(), half.size());
}

// ---- Multi-process: the worker binary over an mmap mailbox ------------------

std::string WorkerBin() {
  const char* env = std::getenv("GUMBO_WORKER_BIN");
  if (env != nullptr && *env != '\0') return env;
  return GUMBO_WORKER_BIN;
}

TEST(ShardedProcessTest, FourWorkerProcessesMatchSingleProcessBytes) {
  const std::string bin = WorkerBin();
  if (bin.empty() || !std::filesystem::exists(bin)) {
    GTEST_SKIP() << "worker binary unavailable (build examples or set "
                    "GUMBO_WORKER_BIN)";
  }

  // Reference: what the worker computes in one process. Mirrors the
  // worker binary's workload construction (400 tuples, seed 11).
  data::GeneratorConfig g;
  g.tuples = 400;
  g.seed = 11;
  g.representation_scale = 100e6 / 400.0;
  auto w = data::MakeA(3, g);
  ASSERT_OK(w);
  cost::ClusterConfig config;
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  ASSERT_OK(plan);
  mr::Engine engine(config);
  ASSERT_OK(plan::ExecutePlan(*plan, &engine, &w->db,
                              plan::ExecutionContext{}));

  char dir_template[] = "/tmp/gumbo_dist_proc_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  const int shards = 4;
  std::vector<pid_t> pids;
  for (int s = 0; s < shards; ++s) {
    const std::string a_shard = "--shard=" + std::to_string(s);
    const std::string a_dir = "--dir=" + dir;
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const char* argv[] = {bin.c_str(),     a_shard.c_str(), "--shards=4",
                            a_dir.c_str(),   "--workload=A3", "--tuples=400",
                            "--seed=11",     nullptr};
      execv(bin.c_str(), const_cast<char* const*>(argv));
      _exit(127);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  for (const auto& q : w->query.subqueries()) {
    SCOPED_TRACE(q.output());
    auto want = w->db.Get(q.output());
    ASSERT_OK(want);
    std::ifstream in(dir + "/out_" + q.output() + ".rel", std::ios::binary);
    ASSERT_TRUE(in.good()) << "worker published no frame";
    std::vector<uint8_t> frame((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    auto rd = FrameReader::Parse(frame);
    ASSERT_OK(rd);
    auto got = DecodeRelationBody(&*rd);
    ASSERT_OK(got);
    EXPECT_EQ(got->words(), (*want)->words());
    EXPECT_EQ(got->fingerprints(), (*want)->fingerprints());
  }
  std::filesystem::remove_all(dir);
}

// ---- Configuration + serve integration --------------------------------------

TEST(DistConfigTest, KnobsFlowThroughScopedOverrideIntoServiceOptions) {
  common::RuntimeConfig cfg;
  cfg.shards = 3;
  common::RuntimeConfig::ScopedOverride guard(cfg);
  EXPECT_EQ(common::RuntimeConfig::Get().shards.value_or(1), 3u);
  EXPECT_NE(common::RuntimeConfig::Get().Describe().find("GUMBO_SHARDS"),
            std::string::npos);

  // The service layers the env knobs over its programmatic defaults.
  auto w = SmallWorkload("A1");
  ASSERT_OK(w);
  serve::QueryService service(
      static_cast<const Database*>(&w->db), serve::ServiceOptions{});
  EXPECT_EQ(service.options().shards, 3);
}

TEST(ServeApiTest, QueryOptionsBuilder) {
  CancelToken token;
  const serve::QueryOptions q = serve::QueryOptions()
                                    .WithDeadlineMs(123.0)
                                    .WithPriority(SchedPriority::kHigh)
                                    .WithCancel(&token);
  EXPECT_EQ(q.deadline_ms, 123.0);
  EXPECT_EQ(q.priority, SchedPriority::kHigh);
  EXPECT_EQ(q.cancel, &token);
  EXPECT_EQ(serve::QueryOptions{}.deadline_ms, 0.0);
}

TEST(ServeShardedTest, ShardedServiceAnswersByteIdentically) {
  auto w = SmallWorkload("A3");
  ASSERT_OK(w);
  const Database* db = &w->db;

  serve::ServiceOptions plain;
  plain.cluster = TestCluster();
  serve::ServiceOptions sharded = plain;
  sharded.shards = 3;

  serve::Response a, b;
  {
    serve::QueryService service(db, plain);
    a = service.Run(w->query);
  }
  {
    serve::QueryService service(db, sharded);
    b = service.Run(w->query);
  }
  ASSERT_OK(a.status);
  ASSERT_OK(b.status);
  EXPECT_GT(b.metrics.dist_wire_mb, 0.0);
  EXPECT_EQ(a.metrics.dist_wire_mb, 0.0);
  for (const auto& q : w->query.subqueries()) {
    SCOPED_TRACE(q.output());
    auto ra = a.outputs.Get(q.output());
    auto rb = b.outputs.Get(q.output());
    ASSERT_OK(ra);
    ASSERT_OK(rb);
    EXPECT_EQ((*ra)->words(), (*rb)->words());
    EXPECT_EQ((*ra)->fingerprints(), (*rb)->fingerprints());
  }
}

}  // namespace
}  // namespace gumbo::dist
