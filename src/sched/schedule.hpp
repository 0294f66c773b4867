// Per-mode parallel-schedule selection for MTTKRP kernels.
//
// Two schedules exist (see sched/partition.hpp for the tile geometry):
//
//   kOwner      — whole-group tiles; each output row is written by exactly
//                 one tile, so accumulation is race-free and results are
//                 bitwise identical across thread counts. A hub group
//                 (power-law fiber) serializes its tile.
//   kPrivatized — balanced split tiles; every thread accumulates into a
//                 private output slab and the slabs are combined in fixed
//                 thread order (sched/launch.hpp). Perfectly load-balanced
//                 but costs threads × out_rows × rank extra memory and a
//                 reduction pass; bitwise deterministic only at a fixed
//                 thread count.
//
// choose_schedule() picks between them from a WorkShape — the same numbers
// the cost model sees (total work, heaviest indivisible unit, output size).
// The caller's KernelContext::sched forces either schedule for benchmarking
// and strategy-layer control; forcing kPrivatized on a kernel with no
// shared writes stays owner (there is nothing to privatize). Every launch
// records its Decision into KernelStats so benches can report the schedule
// chosen per mode.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"
#include "util/workspace.hpp"

namespace mdcp::sched {

enum class Schedule : std::uint8_t { kOwner = 0, kPrivatized = 1 };

const char* schedule_name(Schedule s) noexcept;

/// Minimum total work (weight units ~ nnz) before privatization is worth a
/// reduction pass. Also keeps the auto heuristic owner-computes on the small
/// tensors used by the determinism tests.
inline constexpr nnz_t kMinPrivatizeWork = 32768;

/// Cap on the per-launch partial-slab footprint (threads × rows × rank × 8).
inline constexpr std::size_t kMaxPartialBytes = std::size_t{256} << 20;

/// Owner-computes over-decomposition factor: more tiles than threads so
/// dynamic assignment can smooth moderate imbalance without splitting groups.
inline constexpr int kOwnerTilesPerThread = 8;

/// Shape of one mode's work, in whatever weight unit the engine tiles by.
struct WorkShape {
  nnz_t total = 0;     ///< total weight (typically nnz touched)
  nnz_t max_unit = 0;  ///< heaviest group that owner-computes cannot split
  nnz_t units = 0;     ///< number of groups (output rows / root fibers)
  index_t out_rows = 0;
  index_t rank = 0;
  /// False when tiles never write the same output element (scatter copies,
  /// independent columns) — privatization is then pointless and the
  /// heuristic always answers kOwner.
  bool shared_writes = true;
};

struct Decision {
  Schedule schedule = Schedule::kOwner;
  int tiles = 1;
  double skew = 0;  ///< max_unit × threads / total (1 = perfectly balanced)
  std::size_t partial_bytes = 0;  ///< privatized slab footprint (0 for owner)
  const char* reason = "";        ///< static string for stats/bench tables
};

/// Bytes of per-thread partial output slabs a privatized launch allocates.
std::size_t privatized_partial_bytes(int threads, index_t rows,
                                     index_t rank) noexcept;

/// Extra flops the privatized combine pass performs (adds across partials).
std::uint64_t reduction_flops(int threads, index_t rows,
                              index_t rank) noexcept;

/// Tile budget for an owner-computes launch (over-decomposed, capped by the
/// number of groups).
int owner_tile_count(nnz_t units, int threads) noexcept;

/// Picks the schedule for one mode. `mode` is the caller-side override from
/// KernelContext (kAuto = heuristic).
Decision choose_schedule(const WorkShape& shape, int threads,
                         ScheduleMode mode = ScheduleMode::kAuto) noexcept;

}  // namespace mdcp::sched
