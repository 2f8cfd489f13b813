#include "common/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace eca {

namespace {

// The set, non-empty value of `name`, or nullptr.
const char* raw(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' ? value : nullptr;
}

[[noreturn]] void invalid(const char* name, const char* value,
                          const char* expected) {
  std::fprintf(stderr, "error: %s='%s' is invalid (must be %s)\n", name,
               value, expected);
  std::exit(2);
}

}  // namespace

std::int64_t parse_int(const char* what, const char* text,
                       std::int64_t minimum) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || parsed < minimum) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "an integer >= %lld",
                  static_cast<long long>(minimum));
    invalid(what, text, expected);
  }
  return parsed;
}

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t minimum) {
  const char* value = raw(name);
  return value != nullptr ? parse_int(name, value, minimum) : fallback;
}

double parse_double(const char* what, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') {
    invalid(what, text, "a number");
  }
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* value = raw(name);
  return value != nullptr ? parse_double(name, value) : fallback;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::string(value) : fallback;
}

}  // namespace eca
