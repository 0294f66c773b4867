// Roofline ceilings and per-kernel attribution.
//
// Two tiny calibration kernels establish what *this build on this machine*
// can do: a register-parallel multiply-add loop for the compute ceiling and
// a STREAM-style triad for the memory-bandwidth ceiling. Both are compiled
// with the library's own flags, so the ceilings are the honest upper bounds
// for mdcp kernels (not the datasheet peak of the chip).
//
// Attribution combines a kernel's measured seconds and its model/metric
// flop count into achieved GFLOP/s and %-of-compute-ceiling. The bandwidth
// ceiling and the ridge point describe the machine only: no portable source
// reports the bytes a kernel moved.
#pragma once

#include <cstdint>

namespace mdcp::obs {

/// Machine ceilings measured by calibrate_roofline().
struct RooflineCeilings {
  double fma_gflops = 0;   ///< compute ceiling (multiply-add loop)
  double triad_gbps = 0;   ///< bandwidth ceiling (STREAM triad), GB/s
  int threads = 0;         ///< thread count the calibration ran with
  double calibration_seconds = 0;  ///< wall time spent calibrating

  /// Machine balance: flops per byte at the roofline ridge point.
  double ridge_intensity() const noexcept {
    return triad_gbps > 0 ? fma_gflops / triad_gbps : 0;
  }
};

/// Measures both ceilings with the library's current thread setting.
/// `seconds_budget` bounds the total calibration wall time (split between
/// the two kernels; the best repetition wins, so a short budget only costs
/// precision, not correctness).
RooflineCeilings calibrate_roofline(double seconds_budget = 0.3);

/// One measured kernel execution.
struct RooflineSample {
  double seconds = 0;
  double flops = 0;
};

/// Compute-side roofline coordinates for one sample.
struct RooflineAttribution {
  double gflops = 0;       ///< achieved compute rate
  double pct_compute = 0;  ///< gflops / ceiling, in percent
};

RooflineAttribution attribute_roofline(const RooflineSample& sample,
                                       const RooflineCeilings& ceilings);

}  // namespace mdcp::obs
