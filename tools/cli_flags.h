#pragma once

/// \file cli_flags.h
/// \brief Strict numeric flag parsing shared by the command-line tools.
///
/// The whole value must be numeric and in range, or the flag and the
/// offending text are named on stderr and the parse fails. std::atoi used
/// to fold `--port abc` silently to 0 and serve real traffic on the wrong
/// port; trailing garbage (`--damping 0.6x`), empty values and overflow
/// are rejected the same way.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace srs::cli {

/// Parses `value` as a whole decimal integer in [min_value, max_value].
inline bool ParseIntFlag(const char* flag, const char* value,
                         long long min_value, long long max_value,
                         long long* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    return false;
  }
  const char* end = value + std::strlen(value);
  long long parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || value == end) {
    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", flag, value);
    return false;
  }
  if (parsed < min_value || parsed > max_value) {
    std::fprintf(stderr, "%s: %lld out of range [%lld, %lld]\n", flag,
                 parsed, min_value, max_value);
    return false;
  }
  *out = parsed;
  return true;
}

inline bool ParseIntFlag(const char* flag, const char* value,
                         long long min_value, long long max_value, int* out) {
  long long parsed = 0;
  if (!ParseIntFlag(flag, value, min_value, max_value, &parsed)) return false;
  *out = static_cast<int>(parsed);
  return true;
}

/// Parses `value` as a whole decimal floating-point number.
inline bool ParseDoubleFlag(const char* flag, const char* value,
                            double* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    return false;
  }
  const char* end = value + std::strlen(value);
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || value == end) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag, value);
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace srs::cli
