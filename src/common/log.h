// Leveled, non-interleaving diagnostics for the ECA library.
//
// Replaces the scattered raw std::cerr / fprintf(stderr, ...) diagnostics:
// every message is formatted into a local buffer and written to stderr as
// ONE write under a process-wide mutex, so concurrent solver/runner threads
// can no longer interleave partial lines.
//
// The threshold comes from ECA_LOG (error|warn|info|debug, default warn)
// and is parsed once. Like the threading knobs, an invalid value
// fail-fasts with exit code 2 — a typo such as ECA_LOG=verbose must not
// silently run with the wrong verbosity.
//
//   ECA_LOG_WARN("offline LP needed %d iterations", iters);
//   if (eca::log::enabled(eca::log::Level::kDebug)) { ... }
//
// log::emit() writes regardless of the threshold; the solvers' per-iteration
// traces call it under log::enabled(kDebug).
#pragma once

#include <cstdarg>

namespace eca::log {

enum class Level : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

// The active threshold (parsed from ECA_LOG on first use).
Level threshold();
// Runtime override (tests, embedders); returns the previous threshold.
Level set_threshold(Level level);

inline bool enabled(Level level) {
  return static_cast<int>(level) <= static_cast<int>(threshold());
}

// Emits unconditionally (the caller already decided): one atomic line
// "[eca <level>] <message>\n" on stderr.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void emit(Level level, const char* fmt, ...);
void vemit(Level level, const char* fmt, std::va_list args);

// Emits when `level` passes the threshold.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void logf(Level level, const char* fmt, ...);

}  // namespace eca::log

#define ECA_LOG_ERROR(...) ::eca::log::logf(::eca::log::Level::kError, __VA_ARGS__)
#define ECA_LOG_WARN(...) ::eca::log::logf(::eca::log::Level::kWarn, __VA_ARGS__)
#define ECA_LOG_INFO(...) ::eca::log::logf(::eca::log::Level::kInfo, __VA_ARGS__)
#define ECA_LOG_DEBUG(...) ::eca::log::logf(::eca::log::Level::kDebug, __VA_ARGS__)
