// Reference answers from sgf::NaiveEvalSgf and the comparisons the
// benchmark makes against them.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "sgf/sgf.h"

namespace perfbench {

/// The naive evaluator's answer to one query over one database, kept
/// sorted and deduplicated so answers compare as sets of rows.
class Oracle {
 public:
  static gumbo::Result<Oracle> Compute(const gumbo::sgf::SgfQuery& query,
                                       const gumbo::Database& db);

  /// Empty when `got` holds every output of the query with the reference
  /// rows: identical flat words AND row fingerprints after sorting and
  /// deduplication. Otherwise a description of the first difference.
  std::string Diff(const gumbo::Database& got) const;

 private:
  std::vector<gumbo::Relation> want_;
};

/// Empty when `a` and `b` both hold each relation of `names` with
/// byte-identical word arenas and fingerprints, in the same row order.
std::string DiffExact(const gumbo::Database& a, const gumbo::Database& b,
                      const std::vector<std::string>& names);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
