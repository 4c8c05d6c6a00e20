// Tests for the data generators and the paper's workload catalog.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "data/generator.h"
#include "data/workloads.h"
#include "sgf/analyzer.h"
#include "sgf/naive_eval.h"
#include "test_util.h"

namespace gumbo::data {
namespace {

GeneratorConfig TestConfig(double selectivity = 0.5) {
  GeneratorConfig g;
  g.tuples = 5000;
  g.representation_scale = 1.0;
  g.selectivity = selectivity;
  g.seed = 123;
  return g;
}

TEST(GeneratorTest, GuardShape) {
  Generator gen(TestConfig());
  Relation r = gen.Guard("R", 4);
  EXPECT_EQ(r.size(), 5000u);
  EXPECT_EQ(r.arity(), 4u);
  EXPECT_DOUBLE_EQ(r.bytes_per_tuple(), 40.0);
  for (RowView t : r.views()) {
    for (uint32_t i = 0; i < t.size(); ++i) {
      EXPECT_GE(t[i].AsInt(), 0);
      EXPECT_LT(t[i].AsInt(), 5000);
    }
    // Stored fingerprints match the decoded tuple's hash.
    EXPECT_EQ(t.fingerprint(), t.ToTuple().Hash());
  }
}

TEST(GeneratorTest, Deterministic) {
  Generator a(TestConfig()), b(TestConfig());
  EXPECT_EQ(a.Guard("R").words(), b.Guard("R").words());
  EXPECT_EQ(a.Conditional("S").words(), b.Conditional("S").words());
  // Different names give different data.
  EXPECT_NE(a.Guard("R").words(), a.Guard("G").words());
}

TEST(GeneratorTest, SelectivityControlsMatchFraction) {
  for (double sel : {0.1, 0.5, 0.9}) {
    GeneratorConfig cfg = TestConfig(sel);
    Generator gen(cfg);
    Relation guard = gen.Guard("R", 1);
    Relation cond = gen.Conditional("S", 1, sel);
    std::set<Value> values;
    for (RowView t : cond.views()) values.insert(t[0]);
    size_t matched = 0;
    for (RowView t : guard.views()) {
      if (values.count(t[0]) > 0) ++matched;
    }
    double rate = static_cast<double>(matched) / guard.size();
    EXPECT_NEAR(rate, sel, 0.05) << "selectivity " << sel;
  }
}

TEST(GeneratorTest, ConditionalPadsWithNonMatchingValues) {
  GeneratorConfig cfg = TestConfig(0.2);
  Generator gen(cfg);
  Relation cond = gen.Conditional("S", 1);
  EXPECT_EQ(cond.size(), cfg.tuples);
  size_t junk = 0;
  for (RowView t : cond.views()) {
    if (t[0].AsInt() >= static_cast<int64_t>(cfg.Domain())) ++junk;
  }
  EXPECT_GT(junk, 0u);  // padding present at low selectivity
}

// ---- Skew-aware generators (DESIGN.md §10) ----------------------------------

TEST(ZipfDistributionTest, MassSumsToOneAndDecays) {
  ZipfDistribution z(1000, 1.0);
  double sum = 0.0;
  for (uint64_t r = 0; r < z.n(); ++r) {
    sum += z.Mass(r);
    if (r > 0) {
      EXPECT_LE(z.Mass(r), z.Mass(r - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // theta = 0 degenerates to uniform.
  ZipfDistribution u(1000, 0.0);
  EXPECT_NEAR(u.Mass(0), u.Mass(999), 1e-12);
}

TEST(GeneratorTest, SkewGeneratorsAreDeterministicAndSalted) {
  Generator a(TestConfig()), b(TestConfig());
  EXPECT_EQ(a.ZipfGuard("R").words(), b.ZipfGuard("R").words());
  EXPECT_EQ(a.CorrelatedGuard("R").words(), b.CorrelatedGuard("R").words());
  EXPECT_EQ(a.HotConditional("S").words(), b.HotConditional("S").words());
  EXPECT_EQ(a.ColdConditional("S").words(), b.ColdConditional("S").words());
  // Different names / different seeds give different data.
  EXPECT_NE(a.ZipfGuard("R").words(), a.ZipfGuard("G").words());
  GeneratorConfig other = TestConfig();
  other.seed = 321;
  Generator c(other);
  EXPECT_NE(a.ZipfGuard("R").words(), c.ZipfGuard("R").words());
  // The skewed generators are new streams: they do not perturb (or
  // mirror) the uniform ones.
  EXPECT_NE(a.ZipfGuard("R", 4, 0.0).words(), a.Guard("R", 4).words());
}

TEST(GeneratorTest, ZipfFrequenciesFitTheRankLaw) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 50000;
  Generator gen(cfg);
  const double theta = 1.0;
  Relation r = gen.ZipfGuard("R", 1, theta);
  std::map<int64_t, size_t> freq;
  for (RowView t : r.views()) ++freq[t[0].AsInt()];
  ZipfDistribution z(cfg.Domain(), theta);
  // Top ranks carry enough mass for a tight relative check; value k is
  // rank k by construction.
  for (int64_t rank = 0; rank < 5; ++rank) {
    const double expected = z.Mass(static_cast<uint64_t>(rank));
    const double observed =
        static_cast<double>(freq[rank]) / static_cast<double>(cfg.tuples);
    EXPECT_NEAR(observed, expected, 0.25 * expected)
        << "rank " << rank;
  }
  // Empirical frequency-rank ordering holds on the head.
  EXPECT_GT(freq[0], freq[10]);
  EXPECT_GT(freq[10], freq[1000]);
}

TEST(GeneratorTest, CorrelatedGuardRepeatsKeysAtTheRequestedRate) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 20000;
  Generator gen(cfg);
  for (double corr : {0.0, 0.7, 1.0}) {
    Relation r = gen.CorrelatedGuard("R", 2, corr, 0.0);
    size_t repeats = 0;
    for (RowView t : r.views()) {
      if (t[0] == t[1]) ++repeats;
    }
    const double rate =
        static_cast<double>(repeats) / static_cast<double>(r.size());
    // Chance collisions add ~1/domain, negligible at 20000.
    EXPECT_NEAR(rate, corr, 0.02) << "correlation " << corr;
  }
}

TEST(GeneratorTest, HotAndColdConditionalsPickRankSlices) {
  GeneratorConfig cfg = TestConfig(0.2);
  Generator gen(cfg);
  const int64_t domain = static_cast<int64_t>(cfg.Domain());
  const int64_t cut = static_cast<int64_t>(0.2 * static_cast<double>(domain));
  Relation hot = gen.HotConditional("S", 1);
  Relation cold = gen.ColdConditional("T", 1);
  for (RowView t : hot.views()) {
    if (t[0].AsInt() < domain) {
      EXPECT_LT(t[0].AsInt(), cut);
    }
  }
  for (RowView t : cold.views()) {
    if (t[0].AsInt() < domain) {
      EXPECT_GE(t[0].AsInt(), domain - cut);
    }
  }
  // Against a Zipf guard the hot slice matches far MORE than the nominal
  // selectivity and the cold slice far LESS — the regimes the calibrated
  // cost model must discriminate.
  Relation guard = gen.ZipfGuard("G", 1, 1.0);
  auto match_rate = [&](const Relation& cond) {
    std::set<Value> values;
    for (RowView t : cond.views()) values.insert(t[0]);
    size_t matched = 0;
    for (RowView t : guard.views()) {
      if (values.count(t[0]) > 0) ++matched;
    }
    return static_cast<double>(matched) / static_cast<double>(guard.size());
  };
  EXPECT_GE(match_rate(hot), 2 * 0.2);
  EXPECT_LE(match_rate(cold), 0.2 / 2);
}

TEST(GeneratorTest, SkewGeneratorFingerprintInvariants) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 500;
  Generator gen(cfg);
  for (const Relation& r :
       {gen.ZipfGuard("R", 3, 1.1), gen.CorrelatedGuard("C", 3, 0.5, 0.5),
        gen.HotConditional("S", 2), gen.ColdConditional("T", 2)}) {
    ASSERT_EQ(r.fingerprints().size(), r.size());
    for (RowView t : r.views()) {
      EXPECT_EQ(t.fingerprint(), t.ToTuple().Hash()) << r.name();
    }
  }
}

TEST(WorkloadTest, CatalogQueriesValidateAndEvaluate) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 300;
  for (int i = 1; i <= 5; ++i) {
    auto w = MakeA(i, cfg);
    ASSERT_OK(w);
    ASSERT_OK(sgf::ValidateSgf(w->query));
    ASSERT_OK(sgf::NaiveEvalSgf(w->query, w->db).status()) << w->name;
  }
  for (int i = 1; i <= 2; ++i) {
    auto w = MakeB(i, cfg);
    ASSERT_OK(w);
    ASSERT_OK(sgf::NaiveEvalSgf(w->query, w->db).status()) << w->name;
  }
  for (int i = 1; i <= 4; ++i) {
    auto w = MakeC(i, cfg);
    ASSERT_OK(w);
    ASSERT_OK(sgf::NaiveEvalSgf(w->query, w->db).status()) << w->name;
  }
  EXPECT_FALSE(MakeA(9, cfg).ok());
  EXPECT_FALSE(MakeB(3, cfg).ok());
  EXPECT_FALSE(MakeC(0, cfg).ok());
}

TEST(WorkloadTest, QueryShapes) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 100;
  auto b1 = MakeB(1, cfg);
  ASSERT_OK(b1);
  EXPECT_EQ(b1->query.subqueries()[0].num_conditional_atoms(), 16u);
  auto b2 = MakeB(2, cfg);
  ASSERT_OK(b2);
  EXPECT_TRUE(b2->query.subqueries()[0].AllAtomsShareJoinKey());
  auto a3 = MakeA(3, cfg);
  ASSERT_OK(a3);
  EXPECT_TRUE(a3->query.subqueries()[0].AllAtomsShareJoinKey());
  auto a1 = MakeA(1, cfg);
  ASSERT_OK(a1);
  EXPECT_FALSE(a1->query.subqueries()[0].AllAtomsShareJoinKey());
}

TEST(WorkloadTest, CostModelQueryFiltersEverything) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 100;
  auto w = MakeCostModelQuery(cfg);
  ASSERT_OK(w);
  EXPECT_EQ(w->query.subqueries()[0].num_conditional_atoms(), 48u);
  // The constant matches no tuple: the conjunctive condition fails
  // everywhere, so the result is empty.
  auto out = sgf::NaiveEvalSgf(w->query, w->db);
  ASSERT_OK(out);
  EXPECT_EQ(out->Get("Z").value()->size(), 0u);
}

TEST(WorkloadTest, A3FamilySizes) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 100;
  for (int k : {2, 5, 16}) {
    auto w = MakeA3Family(k, cfg);
    ASSERT_OK(w);
    EXPECT_EQ(w->query.subqueries()[0].num_conditional_atoms(),
              static_cast<size_t>(k));
    EXPECT_TRUE(w->query.subqueries()[0].AllAtomsShareJoinKey());
  }
  EXPECT_FALSE(MakeA3Family(0, cfg).ok());
}

TEST(WorkloadTest, DependencyShapes) {
  GeneratorConfig cfg = TestConfig();
  cfg.tuples = 100;
  auto c1 = MakeC(1, cfg);
  ASSERT_OK(c1);
  auto g = c1->query.BuildDependencyGraph();
  // C1: Z1 -> Z3 -> Z5 (chained), Z2 and Z4 independent.
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 4));
  EXPECT_TRUE(g.Predecessors(1).empty());
  EXPECT_TRUE(g.Predecessors(3).empty());
}

}  // namespace
}  // namespace gumbo::data
