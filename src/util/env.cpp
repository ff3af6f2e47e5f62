#include "util/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace xlds::util {

std::optional<std::size_t> parse_positive_count(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

std::size_t env_positive_count(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  if (const std::optional<std::size_t> v = parse_positive_count(env)) return *v;
  std::fprintf(stderr, "xlds: ignoring %s='%s' (not a positive integer); using %zu\n",
               name, env, fallback);
  return fallback;
}

}  // namespace xlds::util
