// Single monotonic timebase for all of mdcp's observability.
//
// Every timestamp the library records — tracer span begin/end, obs::Phase
// and WallTimer readings, flight-recorder heartbeats, and therefore every
// KernelStats and CpAlsResult second — derives from obs::clock_ns(). A
// Phase hands one pair of readings to its span and its accumulator, so a
// span's duration and the seconds it adds to a report are the same number
// (same epoch, same clock, no cross-clock skew).
#pragma once

#include <chrono>
#include <cstdint>

namespace mdcp::obs {

/// Nanoseconds on the process-wide monotonic clock (steady_clock). The
/// epoch is unspecified but fixed for the process lifetime; only differences
/// are meaningful.
inline std::uint64_t clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds between two clock_ns() readings.
inline double ns_to_seconds(std::uint64_t begin_ns,
                            std::uint64_t end_ns) noexcept {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

}  // namespace mdcp::obs
