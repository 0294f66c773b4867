// The one runner of a scheduled MTTKRP launch.
//
// A launch runs the tiles of one TilePlan (sched/partition.hpp) under the
// Decision choose_schedule made for them (sched/schedule.hpp):
//
//   kOwner      — threads claim tiles dynamically, one at a time, and each
//                 tile writes straight into `out`. Owner plans never split a
//                 group, so no two tiles write the same output row.
//   kPrivatized — thread tid runs tiles tid, tid+team, ... into its own
//                 zeroed copy of the output (its partial). After a barrier
//                 every thread owns one contiguous chunk_range of `out`: it
//                 zeroes the chunk, then adds the partials over it in
//                 ascending thread order t = 0..team-1. What each thread
//                 accumulates depends on (team, tid) only and the addition
//                 order is fixed, so repeated runs at one thread count are
//                 bitwise identical (floating-point addition is not
//                 associative); across thread counts results drift within
//                 the usual reassociation tolerance (docs/architecture.md).
//
// Each thread's Workspace slab is laid out [scratch | partial]: the kernel's
// own per-thread scratch first, then, for a privatized launch, the
// out_elems-real partial. Every slab is reserved serially before the region:
// a budget trip or allocation failure inside it could not propagate (an
// exception escaping an OpenMP structured block terminates).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "sched/partition.hpp"
#include "sched/schedule.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

namespace mdcp::sched {

/// Runs every tile of `plan` on a team of `threads` under `d.schedule` and
/// returns the flops of the combine: d.tiles × out_elems for a privatized
/// launch (reduction_flops(tiles, rows, R) for a rows × R output), 0 for an
/// owner one. `body(tile, scratch, dst)` runs tile `tile` into `dst`, the
/// base of a row-major out_elems-real output: `out` itself under owner, the
/// calling thread's partial under privatized. `scratch` is that thread's
/// `scratch_reals` reals of uninitialised per-thread scratch, slab-origin
/// and 64-byte aligned; keep `scratch_reals` a multiple of the 64-byte
/// stride (mk::padded_rank) so the partial behind it is aligned too.
///
/// An owner launch writes only what the bodies write, so a body that
/// accumulates needs `out` zeroed first. A privatized launch rewrites all
/// of `out`. `body` must not throw.
template <class Body>
std::uint64_t run_launch(const Decision& d, const TilePlan& plan,
                         Workspace& ws, int threads, std::size_t scratch_reals,
                         real_t* out, nnz_t out_elems, Body&& body) {
  const bool owner = d.schedule == Schedule::kOwner;
  const std::size_t slab_reals = scratch_reals + (owner ? 0 : out_elems);
  threads = std::max(1, threads);
  ws.reserve(threads, slab_reals * sizeof(real_t));
  // Partial board: each thread publishes its partial before the barrier and
  // reads every slot after it.
  std::array<const real_t*, Workspace::kMaxThreads> partials{};
#pragma omp parallel num_threads(threads)
  {
    const FlushSubnormals fp;
    real_t* const scratch = ws.thread_scratch<real_t>(slab_reals).data();
    if (owner) {
#pragma omp for schedule(dynamic, 1)
      for (int tile = 0; tile < plan.tiles(); ++tile)
        body(tile, scratch, out);
    } else {
      const int team = team_size();
      const int tid = thread_id();
      real_t* const partial = scratch + scratch_reals;
      std::fill(partial, partial + out_elems, real_t{0});
      partials[static_cast<std::size_t>(tid)] = partial;
      for (int tile = tid; tile < plan.tiles(); tile += team)
        body(tile, scratch, partial);
#pragma omp barrier
      const Range mine = chunk_range(out_elems, team, tid);
      std::fill(out + mine.begin, out + mine.end, real_t{0});
      for (int t = 0; t < team; ++t) {
        const real_t* part = partials[static_cast<std::size_t>(t)];
        for (nnz_t i = mine.begin; i < mine.end; ++i) out[i] += part[i];
      }
    }
  }
  return owner ? 0 : static_cast<std::uint64_t>(d.tiles) * out_elems;
}

}  // namespace mdcp::sched
