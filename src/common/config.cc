#include "common/config.h"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace gumbo::common {

namespace {

// The whole of `v` as a T, or nullopt. from_chars accepts no leading
// whitespace and no '+', and no '-' for unsigned T.
template <typename T>
std::optional<T> ParseWhole(const char* v) {
  if (v == nullptr) return std::nullopt;
  const char* end = v + std::strlen(v);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return parsed;
}

// The innermost test override; null = use the env-parsed config.
std::atomic<const RuntimeConfig*> g_override{nullptr};

template <typename T>
void DescribeKnob(std::string* out, const char* name,
                  const std::optional<T>& v) {
  *out += "  ";
  *out += name;
  const size_t len = std::strlen(name);
  out->append(len < 26 ? 26 - len : 0, ' ');
  *out += "= ";
  if (!v.has_value()) {
    *out += "(unset)";
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out += *v;
  } else if constexpr (std::is_same_v<T, bool>) {
    *out += *v ? "1" : "0";
  } else {
    *out += std::to_string(*v);
  }
  *out += "\n";
}

}  // namespace

std::optional<size_t> ParseCount(const char* v) {
  const std::optional<size_t> n = ParseWhole<size_t>(v);
  if (n == size_t{0}) return std::nullopt;
  return n;
}

std::optional<uint64_t> ParseU64(const char* v) {
  return ParseWhole<uint64_t>(v);
}

std::optional<bool> ParseFlag(const char* v) {
  if (v == nullptr || (v[0] != '0' && v[0] != '1') || v[1] != '\0') {
    return std::nullopt;
  }
  return v[0] == '1';
}

std::optional<double> ParseRate(const char* v) {
  const std::optional<double> r = ParseWhole<double>(v);
  if (r && !(std::isfinite(*r) && *r > 0.0)) return std::nullopt;
  return r;
}

std::optional<std::string> ParseString(const char* v) {
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig c;
#define GUMBO_KNOB_PARSE(env, field, parser) \
  c.field = parser(std::getenv(#env));
  GUMBO_RUNTIME_KNOBS(GUMBO_KNOB_PARSE)
#undef GUMBO_KNOB_PARSE
  return c;
}

const RuntimeConfig& RuntimeConfig::Get() {
  if (const RuntimeConfig* o = g_override.load(std::memory_order_acquire)) {
    return *o;
  }
  static const RuntimeConfig* parsed = new RuntimeConfig(FromEnv());
  return *parsed;
}

std::string RuntimeConfig::Describe() const {
  std::string s = "runtime config (GUMBO_* environment overrides):\n";
#define GUMBO_KNOB_DESCRIBE(env, field, parser) \
  DescribeKnob(&s, #env, field);
  GUMBO_RUNTIME_KNOBS(GUMBO_KNOB_DESCRIBE)
#undef GUMBO_KNOB_DESCRIBE
  return s;
}

RuntimeConfig::ScopedOverride::ScopedOverride(RuntimeConfig cfg)
    : cfg_(std::make_unique<const RuntimeConfig>(std::move(cfg))),
      prev_(g_override.exchange(cfg_.get(), std::memory_order_acq_rel)) {}

RuntimeConfig::ScopedOverride::~ScopedOverride() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace gumbo::common
