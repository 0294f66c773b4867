#include "mttkrp/coo_mttkrp.hpp"

#include <algorithm>
#include <array>

#include "model/cost_model.hpp"
#include "sched/reduce.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"

namespace mdcp {

CooMttkrpEngine::CooMttkrpEngine(KernelContext ctx)
    : MttkrpEngine(ctx) {}

CooMttkrpEngine::CooMttkrpEngine(const CooTensor& tensor, KernelContext ctx)
    : MttkrpEngine(ctx) {
  prepare(tensor);
}

void CooMttkrpEngine::do_prepare(index_t rank) {
  const CooTensor& t = tensor();
  plans_.assign(t.order(), {});
  for (mode_t m = 0; m < t.order(); ++m) {
    ModePlan& plan = plans_[m];
    plan.perm = t.sorted_permutation(std::array<mode_t, 1>{m});
    const auto idx = t.mode_indices(m);
    for (nnz_t i = 0; i < plan.perm.size(); ++i) {
      const index_t row = idx[plan.perm[i]];
      if (plan.rows.empty() || plan.rows.back() != row) {
        plan.rows.push_back(row);
        plan.row_start.push_back(i);
      }
    }
    plan.row_start.push_back(plan.perm.size());
    for (std::size_t g = 0; g + 1 < plan.row_start.size(); ++g)
      plan.max_group =
          std::max(plan.max_group, plan.row_start[g + 1] - plan.row_start[g]);
  }
  mk_ = mk::Kernel(rank);
  if (rank > 0)
    workspace().reserve(effective_threads(),
                        mk_.padded() * sizeof(real_t));
}

void CooMttkrpEngine::do_compute(mode_t mode,
                                 const std::vector<Matrix>& factors,
                                 Matrix& out) {
  const CooTensor& t = tensor();
  const index_t r = check_factors(t, factors);
  MDCP_CHECK(mode < t.order());
  out.resize(t.dim(mode), r, 0);

  ModePlan& plan = plans_[mode];
  const mode_t order = t.order();
  Workspace& ws = workspace();

  const sched::WorkShape shape{.total = t.nnz(),
                               .max_unit = plan.max_group,
                               .units = plan.rows.size(),
                               .out_rows = t.dim(mode),
                               .rank = r,
                               .shared_writes = true};
  const sched::Decision d =
      sched::choose_schedule(shape, effective_threads(), schedule_mode());
  record_schedule(d);
  if (mk_.rank() != r) mk_ = mk::Kernel(r);
  record_tile(mk_.tile());
  const mk::Kernel mk = mk_;

  // Modes other than the output mode, resolved once so the per-nonzero loop
  // can take the fused order-3/4 microkernel paths without re-scanning.
  std::array<mode_t, kMaxOrder> oth{};
  mode_t no = 0;
  for (mode_t m = 0; m < order; ++m)
    if (m != mode) oth[no++] = m;

  // Accumulates the nonzeros perm[row_start[g]+begin, row_start[g]+end)
  // of row group g into `dst` (the output row or a private partial row).
  // `tmp` is a slab-origin Hadamard accumulator (64-byte aligned).
  const auto accumulate = [&](nnz_t g, nnz_t begin, nnz_t end, real_t* tmp,
                              real_t* dst) {
    tmp = mk::assume_aligned(tmp);
    for (nnz_t p = plan.row_start[g] + begin; p < plan.row_start[g] + end;
         ++p) {
      const nnz_t i = plan.perm[p];
      const real_t v = t.value(i);
      if (no == 2) {
        mk.fused2_accum(dst, factors[oth[0]].row(t.index(oth[0], i)).data(),
                        factors[oth[1]].row(t.index(oth[1], i)).data(), v);
      } else if (no == 3) {
        mk.fused3_accum(dst, factors[oth[0]].row(t.index(oth[0], i)).data(),
                        factors[oth[1]].row(t.index(oth[1], i)).data(),
                        factors[oth[2]].row(t.index(oth[2], i)).data(), v);
      } else if (no == 1) {
        mk.axpy_accum(dst, factors[oth[0]].row(t.index(oth[0], i)).data(), v);
      } else {
        mk.fill(tmp, v);
        for (mode_t j = 0; j < no; ++j)
          mk.hadamard(tmp, factors[oth[j]].row(t.index(oth[j], i)).data());
        mk.accum(dst, tmp);
      }
    }
  };
  const auto group_size = [&](nnz_t g) {
    return plan.row_start[g + 1] - plan.row_start[g];
  };

  if (d.schedule == sched::Schedule::kOwner) {
    const sched::TilePlan& tp = sched::cached_tiles(
        plan.owner, d.tiles,
        [&](int n) { return sched::tile_groups(plan.row_start, n); });
    // Scratch is acquired serially, up front: a budget trip or allocation
    // failure inside the parallel region could not propagate (an exception
    // escaping an OpenMP structured block terminates).
    ws.reserve(effective_threads(), mk_.padded() * sizeof(real_t));
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const auto tmp = ws.thread_scratch<real_t>(mk_.padded());
#pragma omp for schedule(dynamic, 1)
      for (int tile = 0; tile < tp.tiles(); ++tile) {
        sched::for_each_group_range(
            tp, tile, group_size, [&](nnz_t g, nnz_t begin, nnz_t end) {
              accumulate(g, begin, end, tmp.data(), out.row(plan.rows[g]).data());
            });
      }
    }
  } else {
    const sched::TilePlan& tp = sched::cached_tiles(
        plan.split, d.tiles,
        [&](int n) { return sched::tile_groups_split(plan.row_start, n); });
    const nnz_t out_elems = static_cast<nnz_t>(t.dim(mode)) * r;
    ws.reserve(effective_threads(),
               (mk_.padded() + out_elems) * sizeof(real_t));
    sched::PartialSet parts;
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const int team = team_size();
      const int tid = thread_id();
      // One slab per thread: the Hadamard accumulator first (padded stride,
      // so both it and the partial slab behind it stay 64-byte aligned),
      // then the partial output (dim × R).
      const auto slab = ws.thread_scratch<real_t>(mk_.padded() + out_elems);
      real_t* tmp = slab.data();
      real_t* partial = tmp + mk_.padded();
      std::fill(partial, partial + out_elems, real_t{0});
      parts.publish(tid, partial);
      // Static tile→thread assignment: the work each thread accumulates is
      // a function of (team, tid) only, so the fixed-order combine below
      // yields bitwise-identical results run to run.
      for (int tile = tid; tile < tp.tiles(); tile += team) {
        sched::for_each_group_range(
            tp, tile, group_size, [&](nnz_t g, nnz_t begin, nnz_t end) {
              accumulate(g, begin, end, tmp,
                         partial + static_cast<nnz_t>(plan.rows[g]) * r);
            });
      }
#pragma omp barrier
      parts.combine_into(out.data(), team, chunk_range(out_elems, team, tid));
    }
    count_flops(sched::reduction_flops(d.tiles, t.dim(mode), r));
  }
  count_flops(static_cast<std::uint64_t>(t.nnz()) * r * order);
}

std::size_t CooMttkrpEngine::memory_bytes() const {
  std::size_t b = 0;
  for (const auto& p : plans_) {
    b += p.perm.size() * sizeof(nnz_t);
    b += p.rows.size() * sizeof(index_t);
    b += p.row_start.size() * sizeof(nnz_t);
  }
  return b;
}

std::size_t coo_footprint_bytes(const CooTensor& tensor, index_t rank,
                                ProjectionCounter* counter, int threads) {
  // One ModePlan per mode: the permutation, the distinct output rows, and
  // their CSR-style row_start.
  const auto nnz = static_cast<std::size_t>(tensor.nnz());
  std::size_t b = 0;
  for (mode_t m = 0; m < tensor.order(); ++m) {
    const auto rows =
        static_cast<std::size_t>(predicted_distinct_rows(tensor, m, counter));
    b += nnz * sizeof(nnz_t) + rows * sizeof(index_t) +
         (rows + 1) * sizeof(nnz_t);
  }
  // Owner-computes tile accumulator: one padded R-row per thread, plus the
  // slab's round-up to the arena alignment.
  return b + static_cast<std::size_t>(threads) *
                 (mk::padded_rank(rank) * sizeof(real_t) +
                  Workspace::kAlignment);
}

}  // namespace mdcp
