// Shared helpers for the gumbo test suites.
#ifndef GUMBO_TESTS_TEST_UTIL_H_
#define GUMBO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/relation.h"
#include "common/result.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "sgf/naive_eval.h"
#include "sgf/parser.h"

namespace gumbo::testing {

/// Builds a relation of integer tuples.
inline Relation MakeRelation(const std::string& name, uint32_t arity,
                             std::initializer_list<std::vector<int64_t>> rows) {
  Relation rel(name, arity);
  for (const auto& row : rows) {
    Tuple t;
    for (int64_t v : row) t.PushBack(Value::Int(v));
    EXPECT_TRUE(rel.Add(std::move(t)).ok());
  }
  return rel;
}

/// Parses a BSGF query or aborts the test.
inline sgf::BsgfQuery ParseBsgfOrDie(const std::string& text) {
  Result<sgf::BsgfQuery> r = sgf::ParseBsgf(text, &Dictionary::Global());
  EXPECT_TRUE(r.ok()) << r.status() << " while parsing: " << text;
  return std::move(r).value();
}

/// Parses an SGF query or aborts the test.
inline sgf::SgfQuery ParseSgfOrDie(const std::string& text) {
  Result<sgf::SgfQuery> r = sgf::ParseSgf(text, &Dictionary::Global());
  EXPECT_TRUE(r.ok()) << r.status() << " while parsing: " << text;
  return std::move(r).value();
}

/// Sorted-tuple view of a relation, for readable assertions.
inline std::vector<std::vector<int64_t>> RowsOf(const Relation& rel) {
  Relation copy = rel;
  copy.SortAndDedupe();
  std::vector<std::vector<int64_t>> out;
  for (RowView t : copy.views()) {
    std::vector<int64_t> row;
    for (uint32_t i = 0; i < t.size(); ++i) row.push_back(t[i].AsInt());
    out.push_back(std::move(row));
  }
  return out;
}

/// Plans + executes + verifies in one call: evaluates `query` under
/// `planner`'s strategy against `db` and checks every produced relation
/// against sgf::NaiveEvalSgf. Returns FailedPrecondition on any mismatch.
inline Result<plan::ExecutionResult> ExecuteAndVerify(
    const sgf::SgfQuery& query, const plan::Planner& planner,
    mr::Engine* engine, Database* db) {
  // Reference run first, on the pristine database.
  GUMBO_ASSIGN_OR_RETURN(Database expected, sgf::NaiveEvalSgf(query, *db));

  GUMBO_ASSIGN_OR_RETURN(plan::QueryPlan plan, planner.Plan(query, *db));
  GUMBO_ASSIGN_OR_RETURN(plan::ExecutionResult result,
                         plan::ExecutePlan(plan, engine, db));

  for (const auto& q : query.subqueries()) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* got, db->Get(q.output()));
    GUMBO_ASSIGN_OR_RETURN(const Relation* want, expected.Get(q.output()));
    if (!got->SetEquals(*want)) {
      return Status::FailedPrecondition(
          "strategy " +
          std::string(plan::StrategyName(planner.options().strategy)) +
          " produced wrong result for " + q.output() + ": got " +
          std::to_string(got->size()) + " tuples, reference has " +
          std::to_string(want->size()));
    }
  }
  return result;
}

/// Applies one to three seeded byte mutations to `text`, for fuzzing a
/// text parser: a bit flip, a truncation, an insertion of random bytes,
/// or a huge number spliced in at a random offset.
inline void MutateText(std::mt19937_64* rng, std::string* text) {
  static const char* const kHuge[] = {
      "99999999999999999999999", "-9223372036854775809",
      "18446744073709551616",    "4294967296",
      "1e999",                   "-1e999",
      "1e-400",                  "-0"};
  auto below = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  for (size_t m = 1 + below(3); m > 0; --m) {
    switch (below(4)) {
      case 0:  // flip one bit
        if (!text->empty()) {
          (*text)[below(text->size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      case 1:  // truncate
        text->resize(below(text->size() + 1));
        break;
      case 2:  // insert random bytes
        for (size_t n = 1 + below(8); n > 0; --n) {
          text->insert(text->begin() + static_cast<std::ptrdiff_t>(
                                           below(text->size() + 1)),
                       static_cast<char>((*rng)()));
        }
        break;
      default:  // a huge number at any offset
        text->insert(below(text->size() + 1), kHuge[below(std::size(kHuge))]);
        break;
    }
  }
}

inline ::testing::AssertionResult IsOk(const Status& s) {
  if (s.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << s.ToString();
}
template <typename T>
::testing::AssertionResult IsOk(const Result<T>& r) {
  return IsOk(r.status());
}

#define ASSERT_OK(expr) ASSERT_TRUE(::gumbo::testing::IsOk(expr))
#define EXPECT_OK(expr) EXPECT_TRUE(::gumbo::testing::IsOk(expr))

}  // namespace gumbo::testing

#endif  // GUMBO_TESTS_TEST_UTIL_H_
