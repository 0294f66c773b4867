// nnz-weighted tile partitioner for MTTKRP parallel schedules.
//
// Every engine's per-mode work decomposes into *groups* that own one output
// row (COO row groups, CSF root fibers, dimension-tree tuples) made of
// smaller *units* of work (nonzeros, blocks, child subtrees). The
// partitioner cuts that work into load-balanced tiles two ways:
//
//   tile_groups        — tiles are runs of whole groups (owner-computes:
//                        each output row stays inside one tile, so
//                        accumulation is race-free). Greedy by weight; the
//                        heaviest tile is bounded by target + max group.
//   tile_groups_split /
//   tile_items_split / — tiles may cut *inside* a group (a hub fiber is
//   tile_uniform         spread across tiles), which balances power-law
//                        work exactly but shares output rows between tiles
//                        — callers must pair these with the privatized
//                        reduction in sched/reduce.hpp.
//
// A TilePlan is a sorted list of (group, offset) boundaries; offsets are in
// whatever unit the builder was given (weight units, item indices). Plans
// are built once per (mode, thread-count) and cached by the engines — tile
// construction is O(groups) and allocation happens only on the first
// compute() of a configuration.
#pragma once

#include <span>
#include <vector>

#include "util/isa.hpp"
#include "util/types.hpp"

namespace mdcp::sched {

/// One tile boundary: the position just before `offset` within `group`.
/// Canonical form: offset < size(group), or (num_groups, 0) at the end.
struct TileBound {
  nnz_t group = 0;
  nnz_t offset = 0;

  friend bool operator==(const TileBound&, const TileBound&) = default;
};

struct TilePlan {
  std::vector<TileBound> bounds;  ///< size tiles()+1, non-decreasing
  bool splits_groups = false;     ///< true → pair with privatized reduction

  int tiles() const noexcept {
    return bounds.empty() ? 0 : static_cast<int>(bounds.size()) - 1;
  }
};

/// Owner-computes tiles: runs of whole groups, greedily packed to
/// ceil(total/max_tiles) weight. `group_ptr` is the cumulative weight prefix
/// (size groups+1, e.g. a CSR row_start array). Never splits a group, so the
/// heaviest tile weighs at most target + max-group-weight. Produces at most
/// `max_tiles` tiles (fewer when there are fewer groups or weight is 0).
TilePlan tile_groups(std::span<const nnz_t> group_ptr, int max_tiles);

/// Balanced tiles cutting anywhere in weight space: tile t covers the
/// global weight range [total*t/tiles, total*(t+1)/tiles), mapped back to
/// (group, intra-group offset). Offsets are in weight units; groups whose
/// weight straddles a cut are split across tiles.
TilePlan tile_groups_split(std::span<const nnz_t> group_ptr, int tiles);

/// Balanced tiles cutting between weighted *items* (never inside one).
/// Items are grouped contiguously: group g owns items
/// [item_group_ptr[g], item_group_ptr[g+1]); bound offsets are item indices
/// relative to the group start. The heaviest tile weighs at most
/// target + max-item-weight.
TilePlan tile_items_split(std::span<const nnz_t> item_weights,
                          std::span<const nnz_t> item_group_ptr, int tiles);

/// Balanced tiles over `n` unit-weight items in a single group (columns,
/// copy elements): bound offsets are item indices.
TilePlan tile_uniform(nnz_t n, int tiles);

/// Invokes fn(group, begin, end) for every (possibly partial) group range
/// covered by tile `tile`, in group order. `size(g)` must return the
/// group's extent in the same units as the plan's offsets; for tile_groups
/// plans (which never split) it simply defines the full range handed to fn.
/// Always inlined, so a kernel variant compiled for a wider ISA
/// (util/isa.hpp) runs the walk and its callbacks in its own code.
template <typename SizeFn, typename Fn>
MDCP_ALWAYS_INLINE void for_each_group_range(const TilePlan& plan, int tile,
                                             SizeFn&& size, Fn&& fn) {
  TileBound b = plan.bounds[static_cast<std::size_t>(tile)];
  const TileBound e = plan.bounds[static_cast<std::size_t>(tile) + 1];
  for (; b.group < e.group; b = {b.group + 1, 0}) {
    const nnz_t sz = size(b.group);
    if (b.offset < sz) fn(b.group, b.offset, sz);
  }
  if (b.group == e.group && b.offset < e.offset)
    fn(b.group, b.offset, e.offset);
}

/// Tile plan cached against the tile count it was built for (the only input
/// that varies between compute() calls of one mode). Engines keep one per
/// (mode, schedule) and rebuild only when the thread budget changes.
struct CachedPlan {
  int tiles = -1;
  TilePlan plan;
};

template <typename BuildFn>
const TilePlan& cached_tiles(CachedPlan& cache, int tiles, BuildFn&& build) {
  if (cache.tiles != tiles) {
    cache.plan = build(tiles);
    cache.tiles = tiles;
  }
  return cache.plan;
}

}  // namespace mdcp::sched
