// RuntimeConfig: the GUMBO_* environment knobs the library reads, parsed
// once in one place instead of scattered getenv calls across scheduler,
// fault injector, operator options and serve layer.
//
// The contract is *layering*, not competition: programmatic options keep
// their struct defaults, and each knob here is a std::optional that is
// engaged only when its environment variable was set (and parsed) — the
// consuming code applies `cfg.knob.value_or(programmatic_default)`. That
// keeps the historical env-wins behavior while making the whole
// configuration injectable: tests install a ScopedOverride instead of
// mutating the process environment, and `--help` / `\stats` surfaces can
// print Describe() so a running binary can show which knobs are live.
//
// Each knob is one row of GUMBO_RUNTIME_KNOBS, which generates the
// fields, FromEnv and Describe.
#ifndef GUMBO_COMMON_CONFIG_H_
#define GUMBO_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace gumbo::common {

// One strict parser per knob type, also used by the bench and soak
// harnesses for their own GUMBO_BENCH_* / GUMBO_SOAK_* knobs. A value is
// read whole or not at all: a missing or empty value, trailing garbage,
// a sign, an out-of-range number, or a value outside the type's domain
// parses to nullopt, which leaves the knob unset.
std::optional<size_t> ParseCount(const char* v);        ///< decimal > 0
std::optional<uint64_t> ParseU64(const char* v);        ///< decimal >= 0
std::optional<bool> ParseFlag(const char* v);           ///< "1" or "0"
std::optional<double> ParseRate(const char* v);         ///< finite > 0
std::optional<std::string> ParseString(const char* v);  ///< non-empty

// X(env name, field, parser): one row per knob, in Describe() order.
#define GUMBO_RUNTIME_KNOBS(X)                                   \
  /* Morsel scheduler (DESIGN.md §9) */                          \
  X(GUMBO_MORSEL_ROWS, morsel_rows, ParseCount)                  \
  X(GUMBO_MAX_TASK_RETRIES, max_task_retries, ParseU64)          \
  X(GUMBO_SCHED_WORKERS, sched_workers, ParseCount)              \
  /* Operator ablations (DESIGN.md §5) */                        \
  X(GUMBO_DISABLE_COMBINERS, disable_combiners, ParseFlag)       \
  X(GUMBO_DISABLE_FILTERS, disable_filters, ParseFlag)           \
  /* Fault injection (DESIGN.md §11) */                          \
  X(GUMBO_FAULT_SEED, fault_seed, ParseU64)                      \
  X(GUMBO_FAULT_RATE, fault_rate, ParseRate)                     \
  X(GUMBO_FAULT_SITES, fault_sites, ParseString)                 \
  /* Serve layer (DESIGN.md §12) */                              \
  X(GUMBO_DISABLE_DELTA, disable_delta, ParseFlag)               \
  X(GUMBO_RESULT_CACHE_CAP, result_cache_cap, ParseU64)          \
  /* Distribution: worker shards per execution (DESIGN.md §13) */ \
  X(GUMBO_SHARDS, shards, ParseCount)

struct RuntimeConfig {
#define GUMBO_KNOB_FIELD(env, field, parser) decltype(parser(nullptr)) field;
  GUMBO_RUNTIME_KNOBS(GUMBO_KNOB_FIELD)
#undef GUMBO_KNOB_FIELD

  /// Fresh parse of the process environment. Unparseable values leave
  /// their knob disengaged.
  static RuntimeConfig FromEnv();

  /// The effective process configuration: the innermost ScopedOverride
  /// when one is installed, otherwise the environment parsed exactly
  /// once (first call wins; later setenv calls are invisible — tests
  /// use ScopedOverride instead).
  static const RuntimeConfig& Get();

  /// One knob per line ("GUMBO_MORSEL_ROWS        = 4096" or "(unset)"),
  /// for --help output and the query server's \stats view.
  std::string Describe() const;

  /// RAII test injection: installs `cfg` as RuntimeConfig::Get()'s
  /// result until destruction (restores the previous override, if any).
  /// Readers racing an install see either config, never a torn one.
  class ScopedOverride {
   public:
    explicit ScopedOverride(RuntimeConfig cfg);
    ~ScopedOverride();
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

   private:
    std::unique_ptr<const RuntimeConfig> cfg_;
    const RuntimeConfig* prev_;
  };
};

}  // namespace gumbo::common

#endif  // GUMBO_COMMON_CONFIG_H_
