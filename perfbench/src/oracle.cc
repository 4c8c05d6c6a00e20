#include "oracle.h"

#include "sgf/naive_eval.h"

namespace perfbench {

using gumbo::Database;
using gumbo::Relation;

namespace {

// `want_label` names the side `want` comes from in the message.
std::string DiffRows(const Relation& want, const Relation& got,
                     const char* want_label) {
  if (want.arity() != got.arity()) return "arity differs";
  if (want.size() != got.size()) {
    return std::to_string(got.size()) + " rows, " + want_label + " has " +
           std::to_string(want.size());
  }
  if (want.words() != got.words()) return "row words differ";
  if (want.fingerprints() != got.fingerprints()) {
    return "row fingerprints differ";
  }
  return "";
}

}  // namespace

gumbo::Result<Oracle> Oracle::Compute(const gumbo::sgf::SgfQuery& query,
                                      const Database& db) {
  GUMBO_ASSIGN_OR_RETURN(Database expected,
                         gumbo::sgf::NaiveEvalSgf(query, db));
  Oracle oracle;
  for (const auto& q : query.subqueries()) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* rel, expected.Get(q.output()));
    oracle.want_.push_back(*rel);
    oracle.want_.back().SortAndDedupe();
  }
  return oracle;
}

std::string Oracle::Diff(const Database& got) const {
  for (const Relation& want : want_) {
    gumbo::Result<const Relation*> have = got.Get(want.name());
    if (!have.ok()) return want.name() + ": missing from the answer";
    Relation canonical = **have;
    canonical.SortAndDedupe();
    const std::string diff = DiffRows(want, canonical, "reference");
    if (!diff.empty()) return want.name() + ": " + diff;
  }
  return "";
}

std::string DiffExact(const Database& a, const Database& b,
                      const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    gumbo::Result<const Relation*> ra = a.Get(name);
    gumbo::Result<const Relation*> rb = b.Get(name);
    if (!ra.ok() || !rb.ok()) return name + ": missing";
    const std::string diff = DiffRows(**ra, **rb, "the other");
    if (!diff.empty()) return name + ": " + diff;
  }
  return "";
}

}  // namespace perfbench
