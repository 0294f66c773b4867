// Bitwise oracle for the dimension-tree TTMV: the pull loop as it ran before
// the children of the root streamed their operands.
//
// Every node pass here gathers through red_ids, and a child of the root
// reads the tensor's own value and coordinate arrays through that
// permutation. The library keeps no red_ids for the root's children, so
// they are rebuilt by a comparator stable sort of the nonzeros. Schedules
// are replayed serially: owner-computes tiles in tile order, privatized
// tiles round-robin into one partial per thread, combined in thread order.
// Only the operand layout differs from dtree/numeric.cpp, so every node's
// values must match it bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <vector>

#include "dtree/dimension_tree.hpp"
#include "la/matrix.hpp"
#include "mttkrp/microkernel.hpp"
#include "sched/partition.hpp"
#include "sched/schedule.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/fpenv.hpp"

namespace mdcp::testing {

/// The nonzeros of `t` stable-sorted by their coordinates in `modes`
/// (lexicographic, first mode most significant): the reduction order of a
/// child of the root with mode set `modes`.
inline std::vector<nnz_t> stable_reduction_order(
    const CooTensor& t, std::span<const mode_t> modes) {
  std::vector<nnz_t> perm(t.nnz());
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (const mode_t m : modes) {
      const auto idx = t.mode_indices(m);
      if (idx[a] != idx[b]) return idx[a] < idx[b];
    }
    return false;
  });
  return perm;
}

/// The parent tuple of every reduction entry of a non-root node: its own
/// red_ids, or the rebuilt sort for a child of the root.
inline std::vector<nnz_t> pull_red_ids(const DimensionTree& tree, int which) {
  const auto& n = tree.node(which);
  if (tree.node(n.parent).is_root())
    return stable_reduction_order(tree.tensor(), n.modes);
  return n.red_ids;
}

/// Values of non-root node `which` from its parent's current values (the
/// root: the tensor), by the pull loop under the schedule that
/// sched::choose_schedule picks for `threads` and `mode`.
inline Matrix pull_ttmv(const DimensionTree& tree, int which,
                        const std::vector<Matrix>& factors, index_t rank,
                        int threads, ScheduleMode mode) {
  const FlushSubnormals fp;
  const auto& n = tree.node(which);
  const auto& p = tree.node(n.parent);
  const bool parent_is_root = p.is_root();
  const std::vector<nnz_t> red_ids = pull_red_ids(tree, which);

  const std::size_t nd = n.delta.size();
  std::array<std::span<const index_t>, kMaxOrder> didx;
  std::array<const Matrix*, kMaxOrder> dfac;
  for (std::size_t d = 0; d < nd; ++d) {
    didx[d] = tree.node_mode_index(n.parent, n.delta[d]);
    dfac[d] = &factors[n.delta[d]];
  }
  const std::span<const real_t> root_vals = tree.tensor().values();

  const mk::Kernel mk(rank);
  Matrix scratch(1, mk.padded());
  real_t* tmp = scratch.data();
  const auto accumulate = [&](nnz_t t, nnz_t begin, nnz_t end, real_t* dst) {
    real_t* out = dst + t * rank;
    for (nnz_t jp = n.red_ptr[t] + begin; jp < n.red_ptr[t] + end; ++jp) {
      const nnz_t j = red_ids[jp];
      const auto frow = [&](std::size_t dd) {
        return dfac[dd]->row(didx[dd][j]).data();
      };
      if (parent_is_root) {
        const real_t v = root_vals[j];
        if (nd == 1) {
          mk.axpy_accum(out, frow(0), v);
        } else if (nd == 2) {
          mk.fused2_accum(out, frow(0), frow(1), v);
        } else if (nd == 3) {
          mk.fused3_accum(out, frow(0), frow(1), frow(2), v);
        } else {
          mk.fill(tmp, v);
          for (std::size_t dd = 0; dd < nd; ++dd) mk.hadamard(tmp, frow(dd));
          mk.accum(out, tmp);
        }
      } else {
        const real_t* prow = p.values.row(static_cast<index_t>(j)).data();
        if (nd == 1) {
          mk.fused2_accum(out, prow, frow(0), 1);
        } else if (nd == 2) {
          mk.fused3_accum(out, prow, frow(0), frow(1), 1);
        } else {
          mk.copy(tmp, prow);
          for (std::size_t dd = 0; dd < nd; ++dd) mk.hadamard(tmp, frow(dd));
          mk.accum(out, tmp);
        }
      }
    }
  };
  const auto red_size = [&](nnz_t t) {
    return n.red_ptr[t + 1] - n.red_ptr[t];
  };

  const sched::WorkShape shape{.total = red_ids.size(),
                               .max_unit = n.max_red,
                               .units = n.tuples,
                               .out_rows = static_cast<index_t>(n.tuples),
                               .rank = rank,
                               .shared_writes = true};
  const sched::Decision d = sched::choose_schedule(shape, threads, mode);
  Matrix out(static_cast<index_t>(n.tuples), rank, 0);
  if (d.schedule == sched::Schedule::kOwner) {
    const sched::TilePlan tp = sched::tile_groups(n.red_ptr, d.tiles);
    for (int tile = 0; tile < tp.tiles(); ++tile)
      sched::for_each_group_range(
          tp, tile, red_size,
          [&](nnz_t t, nnz_t b, nnz_t e) { accumulate(t, b, e, out.data()); });
    return out;
  }
  const sched::TilePlan tp = sched::tile_groups_split(n.red_ptr, d.tiles);
  for (int tid = 0; tid < threads; ++tid) {
    Matrix partial(static_cast<index_t>(n.tuples), rank, 0);
    for (int tile = tid; tile < tp.tiles(); tile += threads)
      sched::for_each_group_range(tp, tile, red_size,
                                  [&](nnz_t t, nnz_t b, nnz_t e) {
                                    accumulate(t, b, e, partial.data());
                                  });
    for (std::size_t i = 0; i < out.size(); ++i)
      out.data()[i] += partial.data()[i];
  }
  return out;
}

}  // namespace mdcp::testing
