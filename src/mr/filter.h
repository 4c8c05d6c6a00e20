// Bloom-filter pre-filtering of shuffle messages (DESIGN.md §5.2).
//
// Gumbo's semi-join jobs shuffle one Request message per (guard fact,
// equation) even when the request's join key cannot possibly match a
// conditional fact — the reducer then silently drops it. A per-condition
// Bloom filter over the conditional relation's projected join keys lets
// the mapper skip those requests entirely: a negative answer is exact
// ("no conditional fact has this key"), a false positive merely ships a
// request that the reducer drops as before. Query results are therefore
// byte-identical with filtering on or off; only shuffle volume changes.
//
// The operator builders (ops/msj.cc, ops/chain.cc, ops/one_round.cc)
// describe the filters through JobSpec::filter_builder (ops/filters.h);
// the engine runs the resulting FilterPlan once per job before the map
// phase, one scheduler task per filter, and hands the finished FilterSet
// to every mapper (see docs/operators.md for which message kinds of each
// operator are filter-eligible). Build and broadcast costs enter the
// modeled clock via cost::FilterBuildCost / cost::FilterBroadcastCost
// (DESIGN.md §5.3).
#ifndef GUMBO_MR_FILTER_H_
#define GUMBO_MR_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace gumbo::mr {

/// A classic (m bits, k hashes) Bloom filter over 64-bit key hashes
/// (DESIGN.md §5.2). Sized from an expected key count and a target
/// false-positive probability: m = -n ln(p) / (ln 2)^2, k = (m/n) ln 2.
/// Deterministic: the bit pattern depends only on the inserted hash set.
/// No false negatives, ever — that is what makes dropping a request on a
/// negative membership answer safe (docs/operators.md, "Filter rules").
class BloomFilter {
 public:
  /// Default target false-positive probability, and the default of
  /// ops::OpOptions::filter_fpp. 5% (~6.2 bits/key) balances filter
  /// broadcast bytes against the shuffled bytes saved at the paper's
  /// 100M-key relations; DESIGN.md §5.2 gives the sizing math and §5.3
  /// the broadcast accounting.
  static constexpr double kDefaultFpp = 0.05;

  /// An empty filter: contains nothing, occupies no bytes.
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` insertions at false-positive
  /// probability `fpp`. `expected_keys` of 0 is treated as 1.
  explicit BloomFilter(size_t expected_keys, double fpp = kDefaultFpp);

  /// Inserts a key by its 64-bit hash (e.g. Tuple::Hash of the join key).
  void Insert(uint64_t key_hash);

  /// Returns false only if the key was definitely never inserted.
  bool MightContain(uint64_t key_hash) const;

  /// Bitset size in bytes — what a broadcast of this filter ships
  /// (DESIGN.md §5.3); excludes the constant-size header.
  double SizeBytes() const { return static_cast<double>(words_.size()) * 8.0; }

  size_t num_bits() const { return words_.size() * 64; }
  int num_hashes() const { return num_hashes_; }
  /// The bitset, 64 bits per word.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  int num_hashes_ = 0;
};

/// The per-job collection of Bloom filters the engine builds from a
/// FilterPlan before the map phase (DESIGN.md §5.2). The operator builder
/// decides what each index means (MSJ: one filter per condition id;
/// chain: one per step; 1-ROUND: one per key-group condition id — see
/// docs/operators.md); mappers receive the set via Mapper::AttachFilters
/// and address filters by those indices.
class FilterSet {
 public:
  explicit FilterSet(std::vector<BloomFilter> filters)
      : filters_(std::move(filters)) {}

  const BloomFilter& filter(size_t i) const { return filters_[i]; }

  size_t size() const { return filters_.size(); }

  /// Total bitset bytes across all filters (materialized; the engine
  /// scales by the representation scale, DESIGN.md §5.3).
  double SizeBytes() const {
    double b = 0.0;
    for (const BloomFilter& f : filters_) b += f.SizeBytes();
    return b;
  }

 private:
  std::vector<BloomFilter> filters_;
};

/// A job's filters before their keys are inserted — what
/// JobSpec::filter_builder returns (DESIGN.md §5.2). The engine calls
/// `populate(f, &filters[f])` for every f as one scheduler task each, so
/// every filter has exactly one writer: no merge, no atomics, and a bit
/// pattern that does not depend on the worker count.
struct FilterPlan {
  /// Sized, still-empty filters, in FilterSet index order.
  std::vector<BloomFilter> filters;
  /// Represented MB the insert passes read; the cost model charges one
  /// local read over it (cost::FilterBuildCost, DESIGN.md §5.3).
  double scan_mb = 0.0;
  /// Inserts every key of filter `f` into `filter`. Called concurrently
  /// for distinct `f`.
  std::function<void(size_t f, BloomFilter* filter)> populate;
};

}  // namespace gumbo::mr

#endif  // GUMBO_MR_FILTER_H_
