// Environment-variable configuration knobs.
//
// Figure harnesses read their scale (user count, repetitions, ...) and the
// thread policies read their worker counts from ECA_* environment variables
// so the same binary can run the paper-scale experiment or a CI-sized one
// without recompiling.
//
// Fail-fast contract shared by every ECA_* knob: an unset (or empty)
// variable yields `fallback`; a set value that does not parse, or that lies
// below `minimum`, prints an error naming the knob and exits with status 2.
// A typo must never silently run a configuration nobody asked for; the
// examples' command-line numbers keep the same contract through parse_int.
#pragma once

#include <cstdint>
#include <string>

namespace eca {

std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t minimum);
// The parser behind env_int, for command-line numbers: `text` must be a
// whole integer >= minimum, or the error names `what` and exits with 2.
std::int64_t parse_int(const char* what, const char* text,
                       std::int64_t minimum);
// Likewise for a number (the parser behind env_double).
double parse_double(const char* what, const char* text);
double env_double(const char* name, double fallback);
std::string env_string(const char* name, const std::string& fallback);

}  // namespace eca
