// Wall-clock stopwatch for benchmarks, tools, and whole-run totals.
//
// WallTimer reads obs::clock_ns(), the same monotonic timebase the span
// tracer and obs::Phase stamp with, so its seconds line up with span
// positions on an exported trace timeline. Phase boundaries inside the
// library are timed by obs::Phase (obs/phase.hpp), not by a WallTimer.
#pragma once

#include <cstdint>

#include "obs/clock.hpp"

namespace mdcp {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept { reset(); }

  void reset() noexcept { start_ns_ = obs::clock_ns(); }

  /// Timestamp of construction / the last reset(), on the tracer timebase.
  std::uint64_t start_ns() const noexcept { return start_ns_; }

  /// Nanoseconds elapsed since construction or the last reset().
  std::uint64_t elapsed_ns() const noexcept {
    return obs::clock_ns() - start_ns_;
  }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

  double millis() const noexcept { return seconds() * 1e3; }

 private:
  std::uint64_t start_ns_ = 0;
};

}  // namespace mdcp
