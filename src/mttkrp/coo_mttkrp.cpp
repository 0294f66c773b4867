#include "mttkrp/coo_mttkrp.hpp"

#include <algorithm>
#include <array>

#include "model/cost_model.hpp"
#include "sched/launch.hpp"
#include "util/error.hpp"

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
  out.resize_for_overwrite(t.dim(mode), r);

  ModePlan& plan = plans_[mode];
  const mode_t order = t.order();

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

  const bool owner = d.schedule == sched::Schedule::kOwner;
  const sched::TilePlan& tp = sched::cached_tiles(
      owner ? plan.owner : plan.split, d.tiles, [&](int n) {
        return owner ? sched::tile_groups(plan.row_start, n)
                     : sched::tile_groups_split(plan.row_start, n);
      });
  // Owner tiles accumulate into `out`; a privatized launch rewrites it.
  if (owner) out.zero();
  count_flops(sched::run_launch(
      d, tp, workspace(), effective_threads(), mk.padded(), out.data(),
      out.size(), [&](int tile, real_t* tmp, real_t* dst) {
        sched::for_each_group_range(
            tp, tile, group_size, [&](nnz_t g, nnz_t begin, nnz_t end) {
              accumulate(g, begin, end, tmp,
                         dst + static_cast<nnz_t>(plan.rows[g]) * r);
            });
      }));
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
