// Wire format of the sharded runtime (DESIGN.md §13): every byte that
// crosses a shard boundary travels in a *frame* — a fixed 32-byte header
// followed by a typed, length-prefixed body, checksummed end to end.
//
// Frame layout:
//   magic      u32   'GMB0' — rejects foreign files/streams outright
//   version    u16   kWireVersion; readers reject anything else
//   type       u16   FrameType discriminator
//   src_shard  u32   sender's shard index
//   aux        u32   frame-type specific (e.g. program job index)
//   body_bytes u64   length of the body that follows
//   checksum   u64   WireChecksum over the body bytes
//
// Version 3 replaced the byte-at-a-time FNV-1a checksum of versions 1-2
// with WireChecksum's four-lane word hash; the layout did not change, but
// a v2 reader would reject every v3 checksum, so the version says so.
//
// The body is a flat little-endian byte stream written by FrameWriter
// and read back by FrameReader with bounds-checked, memcpy-based
// accessors (no alignment assumptions). Values that already live in the
// engine's flat buffers — key/payload word arenas, relation word arenas,
// cached row fingerprints — are copied into the body verbatim, 8 bytes
// per word, and adopted verbatim on the far side: nothing is re-encoded,
// re-hashed, or re-combined, which is what makes a sharded run
// byte-identical to the single-process runtime (tests/dist_test.cc).
//
// Doubles (wire-byte accounting) ship as their IEEE-754 bit patterns, so
// accounting survives the wire bit-for-bit too.
#ifndef GUMBO_DIST_WIRE_H_
#define GUMBO_DIST_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "mr/shuffle.h"
#include "mr/stats.h"

namespace gumbo::dist {

inline constexpr uint32_t kWireMagic = 0x30424D47u;  // "GMB0" little-endian
inline constexpr uint16_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 32;

/// Frame discriminators of the shard protocol (src/dist/sharded.cc).
enum class FrameType : uint16_t {
  kMapStats = 1,        ///< worker -> coordinator: owned intermediate MB
  kReduceAlloc = 2,     ///< coordinator -> workers: global reducer count
  kShuffleChunk = 3,    ///< shard -> shard: records for owned partitions
  kJobStats = 4,        ///< worker -> coordinator: owned-subset job stats
  kOutputFragment = 5,  ///< worker -> coordinator: owned partitions' rows
  kCommit = 6,          ///< coordinator -> workers: round's committed relations
  kError = 7,           ///< any -> any: abort the protocol with a Status
  kRelation = 8,        ///< standalone: one whole relation (worker output)
};

/// The frame body checksum: a 64-bit hash read a word at a time. Whole
/// 32-byte stripes feed four independent lanes (one 8-byte word each,
/// multiply-rotate), so the lanes' multiplies overlap; the lanes are
/// merged, then the remaining whole words, the remaining bytes and the
/// length are folded in, and a final mix spreads every input bit over
/// the result. Order-sensitive: swapping two words changes it.
uint64_t WireChecksum(const uint8_t* data, size_t size);

/// Appends typed values to a frame body, then seals it with a header.
/// The header's 32 bytes are reserved at the front of the buffer from
/// the start, so sealing writes them in place and hands the buffer out
/// without copying the body.
class FrameWriter {
 public:
  FrameWriter() : buf_(kFrameHeaderBytes) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Put(uint64_t v) { U64(v); }
  void Put(double v) { F64(v); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// `n` flat 64-bit words, verbatim.
  void Words(const uint64_t* w, size_t n) { Raw(w, n * sizeof(uint64_t)); }

  size_t body_bytes() const { return buf_.size() - kFrameHeaderBytes; }

  /// Seals the body: writes the header into the reserved bytes, returns
  /// header + body as one sendable frame (the writer's own buffer, moved
  /// out) and leaves the writer empty for reuse.
  std::vector<uint8_t> Finish(FrameType type, uint32_t src_shard,
                              uint32_t aux = 0);

 private:
  void Raw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;  ///< kFrameHeaderBytes reserved + the body
};

/// Validates a frame (magic, version, length, checksum) and reads the
/// body back with bounds-checked typed accessors. Borrows the frame
/// bytes — they must outlive the reader.
class FrameReader {
 public:
  /// Rejects truncated, foreign, version-skewed, and corrupted frames
  /// with Status::ParseError before any field is readable.
  static Result<FrameReader> Parse(const std::vector<uint8_t>& frame);

  FrameType type() const { return type_; }
  uint32_t src_shard() const { return src_shard_; }
  uint32_t aux() const { return aux_; }

  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  Status ReadF64(double* v) { return Read(v, sizeof(*v)); }
  Status Get(uint64_t* v) { return ReadU64(v); }
  Status Get(double* v) { return ReadF64(v); }
  Status ReadStr(std::string* s);
  /// Reads `n` flat words into `out` (resized to exactly `n`); a body
  /// holding fewer fails before `out` is touched.
  Status ReadWords(size_t n, std::vector<uint64_t>* out);
  /// Appends `n` flat words to `out`; a body holding fewer fails before
  /// `out` is touched.
  Status AppendWords(size_t n, std::vector<uint64_t>* out);

  /// Bytes of body not yet consumed.
  size_t remaining() const { return end_ - pos_; }

 private:
  FrameReader(const uint8_t* body, size_t size)
      : pos_(body), end_(body + size) {}
  Status Read(void* v, size_t n) {
    if (static_cast<size_t>(end_ - pos_) < n) {
      return Status::ParseError("wire: frame body over-read");
    }
    // An empty read may pass a null destination (an empty vector's
    // data()), which memcpy forbids even for zero bytes.
    if (n == 0) return Status::Ok();
    std::memcpy(v, pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  FrameType type_ = FrameType::kError;
  uint32_t src_shard_ = 0;
  uint32_t aux_ = 0;
  const uint8_t* pos_ = nullptr;
  const uint8_t* end_ = nullptr;
};

/// Encodes a relation's rows: the row count, then the word and
/// fingerprint arenas verbatim (the tail of a relation body, and one
/// output of a kOutputFragment partition).
void EncodeRows(const Relation& rel, FrameWriter* w);

/// Reads rows written by EncodeRows for a relation of `arity` into
/// `*words` and `*fps`. A row count the body cannot hold is rejected
/// before anything is sized by it, and so is a first row whose
/// fingerprint does not match its words (the one row checked; the rest
/// are adopted as sent).
Status DecodeRows(FrameReader* r, uint32_t arity, std::vector<uint64_t>* words,
                  std::vector<uint64_t>* fps);

/// Encodes one whole relation — name, arity, size-accounting knobs, and
/// its rows (EncodeRows) — as a kRelation body (the same layout kCommit
/// embeds per relation).
void EncodeRelationBody(const Relation& rel, FrameWriter* w);
std::vector<uint8_t> EncodeRelationFrame(const Relation& rel,
                                         uint32_t src_shard);

/// Decodes a relation encoded by EncodeRelationBody from `r`'s current
/// position. The words and fingerprints are copied out of the frame once
/// and the relation adopts those vectors (Relation::AdoptRaw):
/// fingerprints verbatim, never re-hashed.
Result<Relation> DecodeRelationBody(FrameReader* r);

/// Appends one record of map task `task`, as mr::Shuffle::ForEachTaskRecord
/// hands it out, to a kShuffleChunk body: the task index, key arity,
/// cached fingerprint, wire-byte accounting and message count, the key
/// words, then per message its tag, aux, payload size, wire bytes and
/// payload words — all verbatim.
void EncodeShuffleRecord(uint32_t task, const mr::Shuffle::KeyEntry& e,
                         const uint64_t* key_words, const mr::Message* msgs,
                         const uint64_t* payload_arena, FrameWriter* w);

/// Imports every record of a kShuffleChunk body into `*into`
/// (mr::Shuffle::ImportTaskRecord) in body order. A truncated record is a
/// ParseError and a record naming a task `*into` lacks is an Internal
/// error; records before it are already imported.
Status DecodeShuffleChunk(FrameReader* r, mr::Shuffle* into);

/// Encodes a worker's share of a job's accounting as a kJobStats body:
/// every kSum row of the mr::GUMBO_JOB_COUNTERS table in table order,
/// the shard's reduce-side received MB and sent frame bytes, then the
/// count-prefixed per-map-task and per-reduce-task cost slots and each
/// input's (output_mb, metadata_mb). Every value is 8 bytes.
void EncodeJobStatsBody(const mr::JobStats& share, double received_mb,
                        double sent_bytes, FrameWriter* w);

/// Decodes a kJobStats body and adds the share into `*into` — the kSum
/// counters and the disjoint slots (DESIGN.md §13) — and returns the
/// shard's received MB and sent bytes. A truncated body, one with bytes
/// left over, or one whose slot counts differ from `*into`'s is rejected
/// with ParseError, after which `*into` is unspecified.
Status MergeJobStatsBody(FrameReader* r, mr::JobStats* into,
                         double* received_mb, double* sent_bytes);

/// Encodes / decodes a Status as a kError body.
std::vector<uint8_t> EncodeErrorFrame(const Status& s, uint32_t src_shard);
Status DecodeErrorBody(FrameReader* r);

}  // namespace gumbo::dist

#endif  // GUMBO_DIST_WIRE_H_
