#include "sgf/naive_eval.h"

#include <unordered_set>
#include <vector>

namespace gumbo::sgf {

namespace {

// Hash index over the key projection of all kappa-conforming facts.
struct AtomIndex {
  // The key (variables shared with the guard, kappa order) resolved on
  // the guard, which probes the index.
  Projection guard_key;
  std::unordered_set<Tuple> keys;
  bool key_is_empty = false;  // no shared vars: truth = "any conforming fact"
  bool any_conforming = false;
};

Result<AtomIndex> BuildIndex(const Atom& atom, const Atom& guard,
                             const Database& db) {
  AtomIndex index;
  const std::vector<std::string> key_vars = atom.SharedVariables(guard);
  index.key_is_empty = key_vars.empty();
  GUMBO_ASSIGN_OR_RETURN(index.guard_key, guard.ProjectionOnto(key_vars));
  GUMBO_ASSIGN_OR_RETURN(const Projection atom_key,
                         atom.ProjectionOnto(key_vars));
  GUMBO_ASSIGN_OR_RETURN(const Relation* rel, db.Get(atom.relation()));
  if (rel->arity() != atom.arity()) {
    return Status::InvalidArgument(
        "atom " + atom.ToString() + " arity mismatch with relation " +
        rel->name() + "/" + std::to_string(rel->arity()));
  }
  for (RowView fact : rel->views()) {
    if (!atom.Conforms(fact)) continue;
    index.any_conforming = true;
    if (!index.key_is_empty) {
      index.keys.insert(atom_key.Apply(fact));
    }
  }
  return index;
}

}  // namespace

Result<Relation> NaiveEvalBsgf(const BsgfQuery& query, const Database& db) {
  GUMBO_ASSIGN_OR_RETURN(const Relation* guard_rel,
                         db.Get(query.guard().relation()));
  if (guard_rel->arity() != query.guard().arity()) {
    return Status::InvalidArgument(
        "guard " + query.guard().ToString() + " arity mismatch with relation " +
        guard_rel->name() + "/" + std::to_string(guard_rel->arity()));
  }

  std::vector<AtomIndex> indexes;
  indexes.reserve(query.num_conditional_atoms());
  for (const Atom& atom : query.conditional_atoms()) {
    GUMBO_ASSIGN_OR_RETURN(AtomIndex idx, BuildIndex(atom, query.guard(), db));
    indexes.push_back(std::move(idx));
  }

  GUMBO_ASSIGN_OR_RETURN(
      const Projection select,
      query.guard().ProjectionOnto(query.select_vars()));
  Relation out(query.output(), query.OutputArity());
  for (RowView fact : guard_rel->views()) {
    if (!query.guard().Conforms(fact)) continue;
    bool keep = true;
    if (query.has_condition()) {
      keep = query.condition()->Evaluate([&](size_t i) {
        const AtomIndex& idx = indexes[i];
        if (idx.key_is_empty) return idx.any_conforming;
        return idx.keys.count(idx.guard_key.Apply(fact)) > 0;
      });
    }
    if (keep) {
      out.AddUnchecked(select.Apply(fact));
    }
  }
  out.SortAndDedupe();
  return out;
}

Result<Database> NaiveEvalSgf(const SgfQuery& query, const Database& db) {
  Database work = db;
  Database produced;
  for (const BsgfQuery& q : query.subqueries()) {
    GUMBO_ASSIGN_OR_RETURN(Relation rel, NaiveEvalBsgf(q, work));
    produced.Put(rel);
    work.Put(std::move(rel));
  }
  return produced;
}

}  // namespace gumbo::sgf
