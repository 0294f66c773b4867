// One scoped probe per phase boundary.
//
// A Phase reads obs::clock_ns() once at entry and once at exit, and hands
// that one duration to every sink:
//   * the caller's accumulator (a CpAlsResult field or a KernelStats
//     seconds field), always;
//   * the span tracer, when enabled (compiled out with
//     MDCP_ENABLE_TRACING=0);
//   * the calling thread's flight-recorder heartbeat, stamped with the entry
//     and the exit reading.
//
// The integer argument is both the span argument and the heartbeat detail;
// its span name follows from the FrPhase ("rank" for prepare, "mode" for
// compute and the dense steps, "iter" for iteration and fit). Flight-recorder
// events (prepare/compute begin/end, ...) stay explicit at their sites.
//
// Use a Phase wherever time is accumulated. MDCP_TRACE_SPAN remains for
// detail spans that feed no accumulator (dtree.node_eval, mk.tile, sched.*,
// tuner.*).
#pragma once

#include <cstdint>

#include "obs/flightrec.hpp"
#include "obs/trace.hpp"

namespace mdcp::obs {

class Phase {
 public:
  /// Opens the phase. `name` is copied (only when tracing is enabled), so
  /// temporaries are fine. `seconds` must outlive the Phase.
  Phase(FrPhase phase, const char* name, std::int64_t arg,
        double& seconds) noexcept;
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  double& seconds_;
  std::uint64_t begin_ns_;
  std::int64_t arg_;
  FrPhase phase_;
  bool traced_ = false;
  char name_[TraceEvent::kNameCapacity];
};

}  // namespace mdcp::obs
