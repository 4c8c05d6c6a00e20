#include "dist/wire.h"

#include <string>
#include <type_traits>
#include <utility>

namespace gumbo::dist {

namespace {

// The five 64-bit primes of xxHash64, whose structure WireChecksum
// follows (without its 4-byte tail step).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Mixes one word into a lane. Bijective in both `lane` and `word`, so a
// changed word always changes the lane.
inline uint64_t LaneStep(uint64_t lane, uint64_t word) {
  return Rotl(lane + word * kPrime2, 31) * kPrime1;
}

inline uint64_t FoldLane(uint64_t h, uint64_t lane) {
  return (h ^ LaneStep(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t WireChecksum(const uint8_t* data, size_t size) {
  const uint8_t* p = data;
  size_t left = size;
  uint64_t h;
  if (left >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    do {
      v1 = LaneStep(v1, LoadWord(p));
      v2 = LaneStep(v2, LoadWord(p + 8));
      v3 = LaneStep(v3, LoadWord(p + 16));
      v4 = LaneStep(v4, LoadWord(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = FoldLane(h, v1);
    h = FoldLane(h, v2);
    h = FoldLane(h, v3);
    h = FoldLane(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(size);
  for (; left >= 8; p += 8, left -= 8) {
    h = Rotl(h ^ LaneStep(0, LoadWord(p)), 27) * kPrime1 + kPrime4;
  }
  for (; left > 0; ++p, --left) {
    h = Rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<uint8_t> FrameWriter::Finish(FrameType type, uint32_t src_shard,
                                         uint32_t aux) {
  uint8_t* p = buf_.data();
  auto put = [&p](const void* v, size_t n) {
    std::memcpy(p, v, n);
    p += n;
  };
  const uint32_t magic = kWireMagic;
  const uint16_t version = kWireVersion;
  const uint16_t t = static_cast<uint16_t>(type);
  const uint64_t body = body_bytes();
  const uint64_t checksum =
      WireChecksum(buf_.data() + kFrameHeaderBytes, body);
  put(&magic, sizeof(magic));
  put(&version, sizeof(version));
  put(&t, sizeof(t));
  put(&src_shard, sizeof(src_shard));
  put(&aux, sizeof(aux));
  put(&body, sizeof(body));
  put(&checksum, sizeof(checksum));
  std::vector<uint8_t> frame = std::move(buf_);
  buf_.assign(kFrameHeaderBytes, 0);
  return frame;
}

Result<FrameReader> FrameReader::Parse(const std::vector<uint8_t>& frame) {
  if (frame.size() < kFrameHeaderBytes) {
    return Status::ParseError("wire: frame shorter than its header (" +
                              std::to_string(frame.size()) + " bytes)");
  }
  const uint8_t* p = frame.data();
  auto get = [&p](void* v, size_t n) {
    std::memcpy(v, p, n);
    p += n;
  };
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t src_shard = 0;
  uint32_t aux = 0;
  uint64_t body_bytes = 0;
  uint64_t checksum = 0;
  get(&magic, sizeof(magic));
  get(&version, sizeof(version));
  get(&type, sizeof(type));
  get(&src_shard, sizeof(src_shard));
  get(&aux, sizeof(aux));
  get(&body_bytes, sizeof(body_bytes));
  get(&checksum, sizeof(checksum));
  if (magic != kWireMagic) {
    return Status::ParseError("wire: bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::ParseError("wire: frame version " +
                              std::to_string(version) + ", expected " +
                              std::to_string(kWireVersion));
  }
  if (frame.size() - kFrameHeaderBytes != body_bytes) {
    return Status::ParseError(
        "wire: truncated frame (header claims " + std::to_string(body_bytes) +
        " body bytes, got " +
        std::to_string(frame.size() - kFrameHeaderBytes) + ")");
  }
  if (WireChecksum(p, body_bytes) != checksum) {
    return Status::ParseError("wire: frame checksum mismatch (" +
                              std::to_string(body_bytes) + " body bytes)");
  }
  FrameReader r(p, body_bytes);
  r.type_ = static_cast<FrameType>(type);
  r.src_shard_ = src_shard;
  r.aux_ = aux;
  return r;
}

Status FrameReader::ReadStr(std::string* s) {
  uint32_t n = 0;
  GUMBO_RETURN_IF_ERROR(ReadU32(&n));
  if (static_cast<size_t>(end_ - pos_) < n) {
    return Status::ParseError("wire: string over-read");
  }
  s->assign(reinterpret_cast<const char*>(pos_), n);
  pos_ += n;
  return Status::Ok();
}

Status FrameReader::ReadWords(size_t n, std::vector<uint64_t>* out) {
  // Checked before resizing: a garbage count must not allocate.
  if (remaining() / sizeof(uint64_t) < n) {
    return Status::ParseError("wire: frame body over-read");
  }
  out->resize(n);
  return Read(out->data(), n * sizeof(uint64_t));
}

Status FrameReader::AppendWords(size_t n, std::vector<uint64_t>* out) {
  if (remaining() / sizeof(uint64_t) < n) {
    return Status::ParseError("wire: frame body over-read");
  }
  const size_t at = out->size();
  out->resize(at + n);
  return Read(out->data() + at, n * sizeof(uint64_t));
}

void EncodeRows(const Relation& rel, FrameWriter* w) {
  w->U64(rel.size());
  w->Words(rel.words().data(), rel.words().size());
  w->Words(rel.fingerprints().data(), rel.fingerprints().size());
}

Status DecodeRows(FrameReader* r, uint32_t arity, std::vector<uint64_t>* words,
                  std::vector<uint64_t>* fps) {
  uint64_t rows = 0;
  GUMBO_RETURN_IF_ERROR(r->ReadU64(&rows));
  // Bounded before multiplying: each row takes its arity's words plus a
  // fingerprint word, and all of them must fit the body.
  if (rows > r->remaining() / sizeof(uint64_t) / (uint64_t{arity} + 1)) {
    return Status::ParseError("wire: " + std::to_string(rows) +
                              " rows do not fit the frame body");
  }
  GUMBO_RETURN_IF_ERROR(r->ReadWords(rows * arity, words));
  GUMBO_RETURN_IF_ERROR(r->ReadWords(rows, fps));
  // Fingerprints are adopted, never recomputed; spot-check the first.
  if (rows > 0 && (*fps)[0] != TupleFingerprint(words->data(), arity)) {
    return Status::ParseError("wire: row fingerprint does not match its row");
  }
  return Status::Ok();
}

void EncodeRelationBody(const Relation& rel, FrameWriter* w) {
  w->Str(rel.name());
  w->U32(rel.arity());
  w->F64(rel.bytes_per_tuple());
  w->F64(rel.representation_scale());
  EncodeRows(rel, w);
}

std::vector<uint8_t> EncodeRelationFrame(const Relation& rel,
                                         uint32_t src_shard) {
  FrameWriter w;
  EncodeRelationBody(rel, &w);
  return w.Finish(FrameType::kRelation, src_shard);
}

Result<Relation> DecodeRelationBody(FrameReader* r) {
  std::string name;
  uint32_t arity = 0;
  double bytes_per_tuple = 0.0;
  double scale = 1.0;
  GUMBO_RETURN_IF_ERROR(r->ReadStr(&name));
  GUMBO_RETURN_IF_ERROR(r->ReadU32(&arity));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(&bytes_per_tuple));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(&scale));
  std::vector<uint64_t> words;
  std::vector<uint64_t> fps;
  GUMBO_RETURN_IF_ERROR(DecodeRows(r, arity, &words, &fps));
  Relation rel(name, arity);
  if (bytes_per_tuple > 0.0) rel.set_bytes_per_tuple(bytes_per_tuple);
  rel.set_representation_scale(scale);
  rel.AdoptRaw(std::move(words), std::move(fps));
  return rel;
}

void EncodeShuffleRecord(uint32_t task, const mr::Shuffle::KeyEntry& e,
                         const uint64_t* key_words, const mr::Message* msgs,
                         const uint64_t* payload_arena, FrameWriter* w) {
  w->U32(task);
  w->U32(e.key_arity);
  w->U64(e.fingerprint);
  w->F64(e.wire_bytes);
  w->U32(e.msg_count);
  w->Words(key_words, e.key_arity);
  for (uint32_t mi = 0; mi < e.msg_count; ++mi) {
    const mr::Message& m = msgs[mi];
    w->U32(m.tag);
    w->U32(m.aux);
    w->U32(m.payload_size);
    w->F64(m.wire_bytes);
    w->Words(m.payload_words(payload_arena), m.payload_size);
  }
}

Status DecodeShuffleChunk(FrameReader* r, mr::Shuffle* into) {
  // Smallest encoded message: tag, aux, payload size and wire bytes.
  constexpr size_t kMinMessageBytes = 3 * sizeof(uint32_t) + sizeof(double);
  std::vector<uint64_t> key;
  std::vector<uint64_t> payloads;
  std::vector<mr::Shuffle::ImportMessage> msgs;
  while (r->remaining() > 0) {
    uint32_t task = 0;
    uint32_t key_arity = 0;
    uint64_t fingerprint = 0;
    double wire_bytes = 0.0;
    uint32_t msg_count = 0;
    GUMBO_RETURN_IF_ERROR(r->ReadU32(&task));
    GUMBO_RETURN_IF_ERROR(r->ReadU32(&key_arity));
    GUMBO_RETURN_IF_ERROR(r->ReadU64(&fingerprint));
    GUMBO_RETURN_IF_ERROR(r->ReadF64(&wire_bytes));
    GUMBO_RETURN_IF_ERROR(r->ReadU32(&msg_count));
    GUMBO_RETURN_IF_ERROR(r->ReadWords(key_arity, &key));
    // Checked before sizing `msgs`: a garbage count must not allocate.
    if (r->remaining() / kMinMessageBytes < msg_count) {
      return Status::ParseError("wire: shuffle record claims " +
                                std::to_string(msg_count) + " messages");
    }
    msgs.resize(msg_count);
    payloads.clear();
    for (mr::Shuffle::ImportMessage& im : msgs) {
      GUMBO_RETURN_IF_ERROR(r->ReadU32(&im.tag));
      GUMBO_RETURN_IF_ERROR(r->ReadU32(&im.aux));
      GUMBO_RETURN_IF_ERROR(r->ReadU32(&im.payload_size));
      GUMBO_RETURN_IF_ERROR(r->ReadF64(&im.wire_bytes));
      GUMBO_RETURN_IF_ERROR(r->AppendWords(im.payload_size, &payloads));
    }
    // Pointers resolved only once the payload arena stopped growing.
    const uint64_t* payload = payloads.data();
    for (mr::Shuffle::ImportMessage& im : msgs) {
      im.payload = payload;
      payload += im.payload_size;
    }
    GUMBO_RETURN_IF_ERROR(into->ImportTaskRecord(task, key.data(), key_arity,
                                                 fingerprint, wire_bytes,
                                                 msgs.data(), msgs.size()));
  }
  return Status::Ok();
}

void EncodeJobStatsBody(const mr::JobStats& share, double received_mb,
                        double sent_bytes, FrameWriter* w) {
  mr::ForEachCounter([&](auto c, auto field) {
    if constexpr (decltype(c)::merge == mr::Merge::kSum) w->Put(share.*field);
  });
  w->F64(received_mb);
  w->F64(sent_bytes);
  for (const std::vector<double>* slots :
       {&share.map_task_costs, &share.reduce_task_costs}) {
    w->U32(static_cast<uint32_t>(slots->size()));
    for (double c : *slots) w->F64(c);
  }
  w->U32(static_cast<uint32_t>(share.inputs.size()));
  for (const mr::InputStats& is : share.inputs) {
    w->F64(is.output_mb);
    w->F64(is.metadata_mb);
  }
}

Status MergeJobStatsBody(FrameReader* r, mr::JobStats* into,
                         double* received_mb, double* sent_bytes) {
  auto add = [r](auto* to) -> Status {
    std::remove_pointer_t<decltype(to)> v = 0;
    GUMBO_RETURN_IF_ERROR(r->Get(&v));
    *to += v;
    return Status::Ok();
  };
  Status s = Status::Ok();
  mr::ForEachCounter([&](auto c, auto field) {
    if constexpr (decltype(c)::merge == mr::Merge::kSum) {
      if (s.ok()) s = add(&(into->*field));
    }
  });
  GUMBO_RETURN_IF_ERROR(s);
  GUMBO_RETURN_IF_ERROR(r->ReadF64(received_mb));
  GUMBO_RETURN_IF_ERROR(r->ReadF64(sent_bytes));
  // Every slot vector must have the coordinator's shape: a share of the
  // same job splits the same tasks, partitions and inputs.
  auto expect_count = [r](size_t want) -> Status {
    uint32_t n = 0;
    GUMBO_RETURN_IF_ERROR(r->ReadU32(&n));
    if (n == want) return Status::Ok();
    return Status::ParseError("wire: job stats carry " + std::to_string(n) +
                              " slots, expected " + std::to_string(want));
  };
  for (std::vector<double>* slots :
       {&into->map_task_costs, &into->reduce_task_costs}) {
    GUMBO_RETURN_IF_ERROR(expect_count(slots->size()));
    for (double& c : *slots) GUMBO_RETURN_IF_ERROR(add(&c));
  }
  GUMBO_RETURN_IF_ERROR(expect_count(into->inputs.size()));
  for (mr::InputStats& is : into->inputs) {
    GUMBO_RETURN_IF_ERROR(add(&is.output_mb));
    GUMBO_RETURN_IF_ERROR(add(&is.metadata_mb));
  }
  if (r->remaining() != 0) {
    return Status::ParseError("wire: " + std::to_string(r->remaining()) +
                              " trailing bytes after job stats");
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeErrorFrame(const Status& s, uint32_t src_shard) {
  FrameWriter w;
  w.U32(static_cast<uint32_t>(s.code()));
  w.Str(s.message());
  return w.Finish(FrameType::kError, src_shard);
}

Status DecodeErrorBody(FrameReader* r) {
  uint32_t code = 0;
  std::string message;
  GUMBO_RETURN_IF_ERROR(r->ReadU32(&code));
  GUMBO_RETURN_IF_ERROR(r->ReadStr(&message));
  // kUnavailable is the last StatusCode.
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::ParseError("wire: error frame carries unknown status code " +
                              std::to_string(code));
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace gumbo::dist
