// Differential soak harness tests (src/soak): a small soak must run
// clean across every strategy and both serve paths, be deterministic in
// its seed, and honor the seed-splitting contract that iteration i of a
// soak with base seed S equals a one-iteration soak with seed S + i —
// the property the printed failure repro relies on.
#include <gtest/gtest.h>

#include <cstdlib>

#include "soak/soak.h"
#include "test_util.h"

namespace gumbo {
namespace {

soak::SoakConfig SmallConfig(uint64_t seed, size_t iterations) {
  soak::SoakConfig c;
  c.seed = seed;
  c.iterations = iterations;
  c.tuples = 120;
  c.max_failures = 8;
  return c;
}

TEST(SoakTest, SmallSoakHasNoDivergence) {
  const soak::SoakConfig c = SmallConfig(11, 8);
  const soak::SoakReport r = soak::RunSoak(c);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.iterations, 8u);
  // Most of the 9 strategies plus the two serve paths apply to most
  // queries; only 1-ROUND / OPT preconditions may skip.
  EXPECT_GE(r.checks, r.iterations * 6) << r.Summary();
}

TEST(SoakTest, SoakIsDeterministic) {
  const soak::SoakConfig c = SmallConfig(23, 4);
  const soak::SoakReport a = soak::RunSoak(c);
  const soak::SoakReport b = soak::RunSoak(c);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(SoakTest, IterationSeedSplitMatchesBatchRun) {
  // The repro contract: a failing iteration i of a seed-S soak is rerun
  // as a one-iteration soak with seed S + i. Check/skip totals must
  // therefore agree between one 3-iteration soak and three 1-iteration
  // soaks. (Calibration state differs across the batch, but it only
  // steers estimates, never applicability or results.)
  const uint64_t base = 101;
  const soak::SoakReport batch = soak::RunSoak(SmallConfig(base, 3));
  size_t checks = 0;
  size_t skipped = 0;
  for (uint64_t i = 0; i < 3; ++i) {
    const soak::SoakReport one = soak::RunSoak(SmallConfig(base + i, 1));
    EXPECT_TRUE(one.ok()) << one.Summary();
    checks += one.checks;
    skipped += one.skipped;
  }
  EXPECT_EQ(batch.checks, checks);
  EXPECT_EQ(batch.skipped, skipped);
}

TEST(SoakTest, BuildDatabaseIsDeterministicPerRegime) {
  const std::map<std::string, uint32_t> base = {
      {"G", 3}, {"S", 2}, {"T", 2}};
  for (const soak::DataRegime regime :
       {soak::DataRegime::kUniform, soak::DataRegime::kZipf,
        soak::DataRegime::kZipfHeavy, soak::DataRegime::kCorrelated,
        soak::DataRegime::kHotCold}) {
    Database a = soak::BuildDatabase(base, regime, 77, 100, 0.4);
    Database b = soak::BuildDatabase(base, regime, 77, 100, 0.4);
    for (const auto& [name, arity] : base) {
      (void)arity;
      auto ra = a.Get(name);
      auto rb = b.Get(name);
      ASSERT_OK(ra);
      ASSERT_OK(rb);
      EXPECT_EQ((*ra)->words(), (*rb)->words())
          << soak::DataRegimeName(regime) << " " << name;
      EXPECT_EQ((*ra)->fingerprints(), (*rb)->fingerprints());
    }
    // A different seed produces different guard contents.
    Database c = soak::BuildDatabase(base, regime, 78, 100, 0.4);
    EXPECT_NE((*a.Get("G"))->words(), (*c.Get("G"))->words())
        << soak::DataRegimeName(regime);
  }
}

// The soak harness reads its own GUMBO_SOAK_* knobs straight from the
// environment (ctest runs each case in its own process).
TEST(SoakTest, FromEnvReadsKnobs) {
  const char* const kKnobs[] = {"GUMBO_SOAK_SEED", "GUMBO_SOAK_ITERS",
                                "GUMBO_SOAK_TUPLES", "GUMBO_SOAK_MUTATE"};
  setenv("GUMBO_SOAK_SEED", "99", 1);
  setenv("GUMBO_SOAK_ITERS", "3", 1);
  setenv("GUMBO_SOAK_TUPLES", "64", 1);
  setenv("GUMBO_SOAK_MUTATE", "1", 1);
  const soak::SoakConfig c = soak::SoakConfig::FromEnv();
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.iterations, 3u);
  EXPECT_EQ(c.tuples, 64u);
  EXPECT_TRUE(c.mutate);

  // Malformed values leave the defaults in place.
  setenv("GUMBO_SOAK_ITERS", "3x", 1);
  setenv("GUMBO_SOAK_TUPLES", "0", 1);
  setenv("GUMBO_SOAK_MUTATE", "yes", 1);
  const soak::SoakConfig m = soak::SoakConfig::FromEnv();
  EXPECT_EQ(m.iterations, 200u);
  EXPECT_EQ(m.tuples, 240u);
  EXPECT_FALSE(m.mutate);

  for (const char* knob : kKnobs) unsetenv(knob);
  const soak::SoakConfig d = soak::SoakConfig::FromEnv();
  EXPECT_EQ(d.seed, 7u);
  EXPECT_EQ(d.iterations, 200u);  // defaults restored
}

}  // namespace
}  // namespace gumbo
