// Bloom-filter insert passes shared by the MSJ, chain and 1-ROUND
// builders (DESIGN.md §5.2). An operator lists, per filter index, the
// scans that feed it; FilterBuilder turns that list into the job's
// JobSpec::filter_builder, and the engine runs it one filter per
// scheduler task.
#ifndef GUMBO_OPS_FILTERS_H_
#define GUMBO_OPS_FILTERS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/relation.h"
#include "mr/filter.h"
#include "sgf/atom.h"

namespace gumbo::ops {

/// One insert pass of a job filter: every fact of resolved input `input`
/// that conforms to `atom` (every fact when `check_conforms` is false)
/// inserts the ShuffleKeyHash of its projection `key` — the figure the
/// operator's mappers probe.
struct FilterPass {
  size_t input;
  sgf::Atom atom;
  sgf::Projection key;
  bool check_conforms = true;
};

/// The JobSpec::filter_builder of a job whose filter f is fed by
/// `passes[f]`. Filter f is sized for the summed rows of its passes'
/// inputs at false-positive rate `fpp`; a filter without passes stays
/// empty (zero bytes). FilterPlan::scan_mb counts each input some pass
/// reads once.
std::function<mr::FilterPlan(const std::vector<const Relation*>&)>
FilterBuilder(std::vector<std::vector<FilterPass>> passes, double fpp);

}  // namespace gumbo::ops

#endif  // GUMBO_OPS_FILTERS_H_
