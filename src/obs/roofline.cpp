#include "obs/roofline.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "obs/clock.hpp"
#include "util/parallel.hpp"

namespace mdcp::obs {

namespace {

// 16 independent multiply-add chains: enough instruction-level parallelism
// to saturate the FPU pipes whether the compiler emits scalar, SSE2, or
// (with -march flags) FMA code. Returns flops performed; writes the
// accumulator sum through `sink` so the loop cannot be dead-code-eliminated.
std::uint64_t fma_burst(std::uint64_t iters, double* sink) {
  constexpr int kChains = 16;
  double acc[kChains];
  for (int c = 0; c < kChains; ++c)
    acc[c] = 1.0 + 1e-9 * static_cast<double>(c);
  const double mul = 1.0 + 1e-12;
  const double add = 1e-12;
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
  }
  double total = 0;
  for (int c = 0; c < kChains; ++c) total += acc[c];
  *sink = total;
  return iters * kChains * 2;  // one multiply + one add per chain-iteration
}

double measure_fma_gflops(double seconds_budget) {
  const int threads = std::max(num_threads(), 1);
  std::vector<double> sinks(static_cast<std::size_t>(threads) * 64, 0);
  // Warm-up sizing burst: find an iteration count worth ~1/8 of the budget,
  // then run repetitions and keep the best rate.
  std::uint64_t iters = 1 << 16;
  double best = 0;
  const std::uint64_t deadline =
      clock_ns() + static_cast<std::uint64_t>(seconds_budget * 1e9);
  // Loop until a non-zero rate lands (guaranteed progress even if a loaded
  // machine pushes a single pass past the deadline), then until the budget
  // runs out.
  while (best == 0.0 || clock_ns() < deadline) {
    std::atomic<std::uint64_t> flops{0};
    const std::uint64_t t0 = clock_ns();
    parallel_for_chunked(static_cast<nnz_t>(threads),
                         [&](int tid, Range range) {
                           std::uint64_t local = 0;
                           for (nnz_t r = range.begin; r < range.end; ++r)
                             local += fma_burst(
                                 iters,
                                 &sinks[static_cast<std::size_t>(tid) * 64]);
                           flops.fetch_add(local,
                                           std::memory_order_relaxed);
                         });
    const double secs = ns_to_seconds(t0, clock_ns());
    if (secs > 0) {
      best = std::max(best,
                      static_cast<double>(flops.load()) / secs * 1e-9);
    }
    // Grow the burst until one repetition is long enough to time reliably.
    if (secs < seconds_budget / 8) iters *= 2;
  }
  return best;
}

double measure_triad_gbps(double seconds_budget) {
  // 3 x 16 MiB: far beyond any LLC this library targets, so the passes
  // stream from DRAM.
  constexpr std::size_t kElems = 2u << 20;
  std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
  const double scalar = 3.0;
  double best = 0;
  const std::uint64_t deadline =
      clock_ns() + static_cast<std::uint64_t>(seconds_budget * 1e9);
  // First pass doubles as the page-faulting warm-up; never counts.
  bool warmed = false;
  do {
    const std::uint64_t t0 = clock_ns();
    parallel_for_chunked(static_cast<nnz_t>(kElems), [&](int, Range range) {
      for (nnz_t i = range.begin; i < range.end; ++i)
        a[i] = b[i] + scalar * c[i];
    });
    const double secs = ns_to_seconds(t0, clock_ns());
    // STREAM accounting: 2 reads + 1 write per element.
    const double bytes = 3.0 * sizeof(double) * static_cast<double>(kElems);
    if (warmed && secs > 0) best = std::max(best, bytes / secs * 1e-9);
    warmed = true;
    // A loaded machine can burn the whole budget on the warm-up pass;
    // always take at least one measured pass so the ceiling is never 0.
  } while (best == 0.0 || clock_ns() < deadline);
  return best;
}

}  // namespace

RooflineCeilings calibrate_roofline(double seconds_budget) {
  if (seconds_budget <= 0) seconds_budget = 0.3;
  RooflineCeilings ceilings;
  ceilings.threads = std::max(num_threads(), 1);
  const std::uint64_t t0 = clock_ns();
  ceilings.fma_gflops = measure_fma_gflops(seconds_budget / 2);
  ceilings.triad_gbps = measure_triad_gbps(seconds_budget / 2);
  ceilings.calibration_seconds = ns_to_seconds(t0, clock_ns());
  return ceilings;
}

RooflineAttribution attribute_roofline(const RooflineSample& sample,
                                       const RooflineCeilings& ceilings) {
  RooflineAttribution a;
  if (sample.seconds > 0) a.gflops = sample.flops / sample.seconds * 1e-9;
  if (ceilings.fma_gflops > 0)
    a.pct_compute = 100.0 * a.gflops / ceilings.fma_gflops;
  return a;
}

}  // namespace mdcp::obs
