// Operator-level options shared by the MSJ / EVAL / 1-ROUND / chain
// builders — the per-plan switchboard for the paper's §5.1 message
// optimizations and the shuffle-volume optimizations of DESIGN.md §5.
#ifndef GUMBO_OPS_OPTIONS_H_
#define GUMBO_OPS_OPTIONS_H_

#include "mr/filter.h"

namespace gumbo::ops {

/// Options every operator builder accepts.
struct OpOptions {
  /// Gumbo §5.1 optimization (2): ship guard tuple ids instead of tuples.
  bool tuple_id_refs = true;
  /// Gumbo §5.1 optimization (1): message packing.
  bool pack_messages = true;
  /// Map-side set-semantics dedup combiner (DESIGN.md §5.1): collapse
  /// identical (tag, aux, payload) messages per key within one map task.
  /// Legal for every gumbo operator (docs/operators.md).
  bool combiners = true;
  /// Bloom-filtered semi-join requests (DESIGN.md §5.2): guard tuples
  /// whose join key provably has no conditional match never emit a
  /// Request. Per-operator eligibility rules in docs/operators.md.
  bool bloom_filters = true;
  /// Target false-positive probability of the key filters (see
  /// mr::BloomFilter::kDefaultFpp for why 5%).
  double filter_fpp = mr::BloomFilter::kDefaultFpp;
};

/// Applies the GUMBO_DISABLE_COMBINERS / GUMBO_DISABLE_FILTERS
/// environment overrides (any non-empty value other than "0" disables
/// the corresponding optimization). The environment wins over
/// programmatic settings so CI and benches can force an ablation without
/// code changes (DESIGN.md §5.4); plan::Planner applies this to every
/// plan it builds.
OpOptions ApplyEnvOverrides(OpOptions options);

}  // namespace gumbo::ops

#endif  // GUMBO_OPS_OPTIONS_H_
