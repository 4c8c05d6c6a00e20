// Shuffle message vocabulary of the gumbo operators, with wire sizes.
//
// Wire sizes follow a compact Hadoop serialization: 1 tag byte, 2 bytes
// for small ids, 8 bytes for a tuple id, and 10 bytes per attribute of a
// tuple payload (the paper's data density). The tuple-id optimization
// (paper §5.1, optimization (2)) replaces a guard-tuple payload by its
// 8-byte id; the EVAL job then re-reads the guard relation to resolve ids.
#ifndef GUMBO_OPS_MESSAGES_H_
#define GUMBO_OPS_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/relation.h"
#include "mr/message.h"
#include "sgf/atom.h"

namespace gumbo::ops {

/// The shuffle key of one fact under one join-key projection, plus its
/// fingerprint — THE invariant of the flat hot path: `hash` always
/// equals `TupleFingerprint(key.words(), key.size())` (== Tuple::Hash of
/// the key), whether it came from the stored row or a fresh projection.
/// Every mapper emission and every Bloom insert/probe must agree on it,
/// so the selection logic lives here, once.
struct ShuffleKey {
  TupleView key;
  uint64_t hash = 0;
  /// Backing storage when the key is a real projection; `key` views it.
  Tuple projected;

  /// Selects the key for `fact` under the builder-resolved projection
  /// `proj`: on an identity projection the fact itself with its stored
  /// row fingerprint — the tuple is never hashed after load (DESIGN.md
  /// §7) — otherwise the projection, materialized and hashed once.
  void Select(const sgf::Projection& proj, RowView fact) {
    if (proj.identity) {
      key = fact;
      hash = fact.fingerprint();
    } else {
      projected = proj.Apply(fact);
      key = projected;
      hash = key.Fingerprint();
    }
  }
};

/// Hash-only variant for Bloom-filter build scans: the figure a probe of
/// the same (proj, fact) via ShuffleKey::Select would use.
inline uint64_t ShuffleKeyHash(const sgf::Projection& proj, RowView fact) {
  return proj.identity ? fact.fingerprint() : proj.Apply(fact).Hash();
}

/// Message tags used by MSJ / EVAL / 1-ROUND / chain jobs.
enum MsgTag : uint32_t {
  /// Guard-side request: "does a conditional fact with my key exist?"
  /// aux = equation index; payload = guard tuple, its id, or an output
  /// projection (operator-dependent).
  kTagRequest = 1,
  /// Conditional-side assertion of existence. aux = condition id.
  kTagAssert = 2,
  /// EVAL: the guard fact itself (X0 membership). payload = guard tuple
  /// when ids are in use, empty otherwise (the key carries the tuple).
  kTagGuard = 3,
  /// EVAL: membership of the key in semi-join output X_aux.
  kTagX = 4,
};

inline constexpr double kTagBytes = 1.0;
inline constexpr double kSmallIdBytes = 2.0;
inline constexpr double kTupleIdBytes = 8.0;

/// Request message wire size (excluding key): tag + equation id + payload.
inline double RequestWireBytes(double payload_bytes) {
  return kTagBytes + kSmallIdBytes + payload_bytes;
}

/// Assert message wire size (excluding key): tag + condition id.
inline double AssertWireBytes() { return kTagBytes + kSmallIdBytes; }

}  // namespace gumbo::ops

#endif  // GUMBO_OPS_MESSAGES_H_
