// Thin OpenMP facade.
//
// Central place for thread-count control so benchmarks can sweep thread
// counts without touching environment variables, and so the library still
// compiles (serially) if OpenMP were ever unavailable. Every team member of
// the helpers below runs its share under FlushSubnormals (util/fpenv.hpp),
// like every other parallel body in the library.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/flightrec.hpp"
#include "util/fpenv.hpp"
#include "util/types.hpp"

namespace mdcp {

/// Heartbeat cadence inside parallel loops: each worker publishes a
/// flight-recorder beat every 2^k iterations (mask test, so the steady-state
/// cost per iteration is one AND + one predictable branch). Coarse on
/// purpose — the watchdog deadlines are hundreds of milliseconds and up.
inline constexpr nnz_t kHeartbeatStride = 1024;

/// Number of threads mdcp kernels will use (defaults to OpenMP's default).
int num_threads() noexcept;

/// Override the number of threads used by all subsequent mdcp kernels.
void set_num_threads(int n) noexcept;

/// Index of the calling thread inside an mdcp parallel region (0 outside).
int thread_id() noexcept;

/// Size of the current parallel team (1 outside a parallel region).
int team_size() noexcept;

/// RAII thread-count override: constructs with `n > 0` to switch the OpenMP
/// thread count for the enclosed scope and restore the previous setting on
/// destruction; `n <= 0` is a no-op. Used by KernelContext::threads so one
/// engine can run with its own thread budget without disturbing the global
/// setting.
class ThreadScope {
 public:
  explicit ThreadScope(int n) noexcept;
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_omp_ = 0;       // 0 = nothing to restore
  int saved_override_ = 0;  // previous library-wide override
};

/// Splits [0, n) into `parts` contiguous chunks and returns chunk `p` as
/// [begin, end). Chunks differ in size by at most one element.
struct Range {
  nnz_t begin;
  nnz_t end;

  nnz_t size() const noexcept { return end - begin; }
};
Range chunk_range(nnz_t n, int parts, int p) noexcept;

/// Runs fn(i) for i in [0, n) with OpenMP static scheduling.
template <typename Fn>
void parallel_for(nnz_t n, Fn&& fn) {
#pragma omp parallel
  {
    const FlushSubnormals fp;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      if ((static_cast<nnz_t>(i) & (kHeartbeatStride - 1)) == 0) {
        obs::fr_beat(obs::FrPhase::kParallelFor, i);
      }
      fn(static_cast<nnz_t>(i));
    }
  }
}

/// Runs fn(i) with dynamic scheduling in contiguous chunks of `grain`
/// iterations (irregular per-iteration work, e.g. reduction sets of wildly
/// varying size).
template <typename Fn>
void parallel_for_dynamic(nnz_t n, Fn&& fn, nnz_t grain = 64) {
  const auto chunk = static_cast<std::int64_t>(grain == 0 ? 1 : grain);
#pragma omp parallel
  {
    const FlushSubnormals fp;
#pragma omp for schedule(dynamic, chunk)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      if ((static_cast<nnz_t>(i) & (kHeartbeatStride - 1)) == 0) {
        obs::fr_beat(obs::FrPhase::kParallelFor, i);
      }
      fn(static_cast<nnz_t>(i));
    }
  }
}

/// Runs fn(c) for every chunk c in [0, parts), spread over a team of up to
/// `parts` threads; with parts <= 1 it calls fn(0) on the calling thread. A
/// caller that splits its work by chunk_range(n, parts, c) and combines the
/// chunks' results in chunk order gets results that depend on `parts` only,
/// not on how many threads the team actually has. The setup passes (sort,
/// projection hashing, .tns parsing) use it; their bodies do integer work
/// and parsing, so unlike the kernel helpers this sets no FP environment.
/// fn must not throw: set a flag and throw after the call.
template <typename Fn>
void parallel_chunks(int parts, Fn&& fn) {
  if (parts <= 1) {
    fn(0);
    return;
  }
#pragma omp parallel num_threads(parts)
  {
    const int team = team_size();
    for (int c = thread_id(); c < parts; c += team) {
      obs::fr_beat(obs::FrPhase::kParallelFor, c);
      fn(c);
    }
  }
}

/// Runs fn(tid, range) once per team member with a contiguous static
/// partition of [0, n): thread `tid` owns `range` exclusively. This is the
/// shape kernels use to pair a per-thread Workspace slab with a fixed slice
/// of the iteration space instead of allocating scratch inside the loop.
template <typename Fn>
void parallel_for_chunked(nnz_t n, Fn&& fn) {
#pragma omp parallel
  {
    const FlushSubnormals fp;
    const int parts = team_size();
    const int tid = thread_id();
    obs::fr_beat(obs::FrPhase::kParallelFor, tid);
    fn(tid, chunk_range(n, parts, tid));
  }
}

}  // namespace mdcp
