#include "dtree/numeric.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "mttkrp/microkernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/launch.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"
#include "util/types.hpp"

namespace mdcp {

namespace {

// Memoization scoreboard: a *hit* is a node requested while its cached
// values are still valid (the memoized reuse the dimension-tree scheme
// exists for); a *miss* is a node that had to be re-evaluated. The root is
// never counted — it aliases the input tensor and is always "valid".
obs::Counter& memo_hits_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("dtree.memo_hits");
  return c;
}
obs::Counter& memo_misses_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("dtree.memo_misses");
  return c;
}
obs::Counter& invalidated_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("dtree.nodes_invalidated");
  return c;
}

// How many reduction entries ahead a non-root pass prefetches the parent
// row. Those rows arrive in the order of the node's sort, which for all but
// one child of a parent is scattered over the parent's value matrix.
constexpr nnz_t kAhead = 8;

// Prefetches every cache line that the `cols`-wide row at `row` touches.
MDCP_ALWAYS_INLINE void prefetch_row(const real_t* row, index_t cols) {
  constexpr std::uintptr_t kLine = 64;
  const auto first = reinterpret_cast<std::uintptr_t>(row) / kLine;
  const auto last = (reinterpret_cast<std::uintptr_t>(row + cols) - 1) / kLine;
  for (std::uintptr_t line = first; line <= last; ++line)
    __builtin_prefetch(reinterpret_cast<const void*>(line * kLine));
}

// What one node pass reads, resolved once outside the hot loop. A child of
// the root reads its own streamed copies (root_vals, didx) by reduction
// entry; any other node reads its parent's arrays by parent tuple.
// Fixed-size arrays keep this allocation-free (δ can never exceed the
// tensor order).
struct TtmvPass {
  const DimensionTree::Node* n = nullptr;
  const Matrix* parent_values = nullptr;
  bool parent_is_root = false;
  std::size_t nd = 0;
  std::array<std::span<const index_t>, kMaxOrder> didx{};
  std::array<const Matrix*, kMaxOrder> dfac{};
  std::span<const real_t> root_vals;
  nnz_t entries = 0;
  index_t rank = 0;
  mk::Kernel mk;
  const sched::TilePlan* plan = nullptr;
};

// Accumulates reduction entries [red_ptr[t]+begin, red_ptr[t]+end) of
// tuple t into `dst` row t. The range that starts the tuple (begin == 0)
// first sets the row to +0: an owner tile holds whole tuples, so this is
// the row's only write before its sum, made while the row is in L1. A
// privatized slab is zeroed already, and the thread that holds a split
// tuple's first range runs it before its later ones (tiles run in
// ascending order), so the zero there changes nothing. The fused
// microkernel paths cover the common small contraction sets; wider δ falls
// back to the Hadamard accumulator `tmp` (slab-origin, 64-byte aligned).
MDCP_ALWAYS_INLINE void accumulate(const TtmvPass& a, nnz_t t, nnz_t begin,
                                   nnz_t end, real_t* tmp, real_t* dst) {
  const auto& n = *a.n;
  const mk::Kernel& mk = a.mk;
  const std::size_t nd = a.nd;
  tmp = mk::assume_aligned(tmp);
  real_t* out = dst + t * a.rank;
  if (begin == 0) mk.fill(out, 0);
  for (nnz_t jp = n.red_ptr[t] + begin; jp < n.red_ptr[t] + end; ++jp) {
    if (!a.parent_is_root && jp + kAhead < a.entries)
      prefetch_row(a.parent_values
                       ->row(static_cast<index_t>(n.red_ids[jp + kAhead]))
                       .data(),
                   a.rank);
    const nnz_t j = a.parent_is_root ? jp : n.red_ids[jp];
    const auto frow = [&](std::size_t dd) MDCP_INLINE_LAMBDA {
      return a.dfac[dd]->row(a.didx[dd][j]).data();
    };
    if (a.parent_is_root) {
      const real_t v = a.root_vals[j];
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
      const real_t* prow =
          a.parent_values->row(static_cast<index_t>(j)).data();
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
}

// Runs every group range of tile `tile` of the pass's plan into `dst`. The
// per-tile body of both schedules, compiled once per ISA variant below.
MDCP_ALWAYS_INLINE void ttmv_tile(const TtmvPass& a, int tile, real_t* tmp,
                                  real_t* dst) {
  const auto& red_ptr = a.n->red_ptr;
  sched::for_each_group_range(
      *a.plan, tile,
      [&](nnz_t t) MDCP_INLINE_LAMBDA { return red_ptr[t + 1] - red_ptr[t]; },
      [&](nnz_t t, nnz_t begin, nnz_t end) MDCP_INLINE_LAMBDA {
        accumulate(a, t, begin, end, tmp, dst);
      });
}

using TtmvTileFn = void (*)(const TtmvPass&, int, real_t*, real_t*);

void ttmv_tile_baseline(const TtmvPass& a, int tile, real_t* tmp,
                        real_t* dst) {
  ttmv_tile(a, tile, tmp, dst);
}

MDCP_TARGET_AVX2 void ttmv_tile_avx2(const TtmvPass& a, int tile,
                                     real_t* tmp, real_t* dst) {
  ttmv_tile(a, tile, tmp, dst);
}

// Computes one node's values from its (already materialized) parent.
// Returns the multiply/add count of the pass, its combine included.
std::uint64_t ttmv_from_parent(DimensionTree& tree, int which,
                               const std::vector<Matrix>& factors,
                               index_t rank, Workspace& ws,
                               TtmvSched* ts) {
  auto& n = tree.node(which);
  const auto& p = tree.node(n.parent);

  // Every row is written below before it is read: the owner schedule sets
  // each row to +0 as it starts the tuple, the privatized one zeroes each
  // thread's chunk before its combine.
  n.values.resize_for_overwrite(static_cast<index_t>(n.tuples), rank);

  TtmvPass a;
  a.n = &n;
  a.parent_values = &p.values;
  a.parent_is_root = p.is_root();
  a.nd = n.delta.size();
  MDCP_CHECK_MSG(a.nd <= kMaxOrder, "contraction set exceeds kMaxOrder");
  for (std::size_t d = 0; d < a.nd; ++d) {
    a.didx[d] = a.parent_is_root
                    ? std::span<const index_t>(n.red_idx[d])
                    : tree.node_mode_index(n.parent, n.delta[d]);
    a.dfac[d] = &factors[n.delta[d]];
  }
  a.root_vals = n.red_vals;
  a.entries = n.red_ptr.back();
  a.rank = rank;
  a.mk = mk::Kernel(rank);

  const int threads = ts != nullptr ? ts->threads : num_threads();
  const ScheduleMode smode =
      ts != nullptr ? ts->mode : ScheduleMode::kAuto;
  const TtmvTileFn tile_fn =
      isa::pick(ts != nullptr ? ts->variant : isa::dispatched(),
                &ttmv_tile_baseline, &ttmv_tile_avx2);
  const sched::WorkShape shape{.total = a.entries,
                               .max_unit = n.max_red,
                               .units = n.tuples,
                               .out_rows = static_cast<index_t>(n.tuples),
                               .rank = rank,
                               .shared_writes = true};
  const sched::Decision d = sched::choose_schedule(shape, threads, smode);
  if (ts != nullptr) {
    (d.schedule == sched::Schedule::kPrivatized ? ts->privatized_launches
                                                : ts->owner_launches) += 1;
    ts->last = d;
  }

  const bool owner = d.schedule == sched::Schedule::kOwner;
  a.plan = &sched::cached_tiles(
      owner ? n.owner_tiles : n.split_tiles, d.tiles, [&](int nt) {
        return owner ? sched::tile_groups(n.red_ptr, nt)
                     : sched::tile_groups_split(n.red_ptr, nt);
      });
  const std::uint64_t combine = sched::run_launch(
      d, *a.plan, ws, threads, a.mk.padded(), n.values.data(),
      n.values.size(), [&](int tile, real_t* tmp, real_t* dst) {
        tile_fn(a, tile, tmp, dst);
      });
  n.valid = true;
  return static_cast<std::uint64_t>(a.entries) * rank * (a.nd + 1) + combine;
}

}  // namespace

std::uint64_t compute_node_values(DimensionTree& tree, int which,
                                  const std::vector<Matrix>& factors,
                                  index_t rank, Workspace& ws,
                                  TtmvSched* ts) {
  auto& n = tree.node(which);
  if (n.is_root()) return 0;  // the root aliases the input tensor
  if (n.valid && n.values.cols() == rank) {
    memo_hits_metric().add();
    return 0;
  }
  memo_misses_metric().add();

  const std::uint64_t above =
      compute_node_values(tree, n.parent, factors, rank, ws, ts);
  std::uint64_t own;
  {
    MDCP_TRACE_SPAN("dtree.node_eval", "node",
                    static_cast<std::int64_t>(which));
    own = ttmv_from_parent(tree, which, factors, rank, ws, ts);
  }
  return above + own;
}

void invalidate_mode(DimensionTree& tree, mode_t mode) {
  for (int i = 0; i < tree.size(); ++i) {
    auto& n = tree.node(i);
    if (n.is_root()) continue;
    if (!mode_in(n.mode_set, mode) && n.valid) {
      n.valid = false;
      n.values.resize(0, 0);
      invalidated_metric().add();
    }
  }
}

void invalidate_all_nodes(DimensionTree& tree) {
  for (int i = 0; i < tree.size(); ++i) {
    auto& n = tree.node(i);
    if (n.valid && !n.is_root()) invalidated_metric().add();
    n.valid = false;
    n.values.resize(0, 0);
  }
}

}  // namespace mdcp
