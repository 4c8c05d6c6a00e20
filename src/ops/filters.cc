#include "ops/filters.h"

#include <memory>
#include <utility>

#include "ops/messages.h"

namespace gumbo::ops {

std::function<mr::FilterPlan(const std::vector<const Relation*>&)>
FilterBuilder(std::vector<std::vector<FilterPass>> passes, double fpp) {
  // Shared with every plan's populate closure, which may outlive the
  // builder that made it.
  auto shared = std::make_shared<const std::vector<std::vector<FilterPass>>>(
      std::move(passes));
  return [shared, fpp](const std::vector<const Relation*>& rels) {
    mr::FilterPlan plan;
    std::vector<bool> scanned(rels.size(), false);
    for (const std::vector<FilterPass>& filter_passes : *shared) {
      size_t rows = 0;
      for (const FilterPass& p : filter_passes) {
        rows += rels[p.input]->size();
        scanned[p.input] = true;
      }
      plan.filters.push_back(filter_passes.empty()
                                 ? mr::BloomFilter()
                                 : mr::BloomFilter(rows, fpp));
    }
    for (size_t i = 0; i < rels.size(); ++i) {
      if (scanned[i]) plan.scan_mb += rels[i]->SizeMb();
    }
    plan.populate = [shared, rels](size_t f, mr::BloomFilter* filter) {
      for (const FilterPass& p : (*shared)[f]) {
        for (RowView fact : rels[p.input]->views()) {
          if (p.check_conforms && !p.atom.Conforms(fact)) continue;
          filter->Insert(ShuffleKeyHash(p.key, fact));
        }
      }
    };
    return plan;
  };
}

}  // namespace gumbo::ops
