#include "mttkrp/blocked_coo.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "sched/reduce.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"

namespace mdcp {

BlockedCooEngine::BlockedCooEngine(unsigned block_bits, KernelContext ctx)
    : MttkrpEngine(ctx), bits_(block_bits) {
  MDCP_CHECK_MSG(block_bits >= 1 && block_bits <= 8,
                 "block_bits must be in [1, 8] (8-bit local offsets)");
}

BlockedCooEngine::BlockedCooEngine(const CooTensor& tensor,
                                   unsigned block_bits, KernelContext ctx)
    : BlockedCooEngine(block_bits, ctx) {
  prepare(tensor);
}

void BlockedCooEngine::do_prepare(index_t rank) {
  const CooTensor& tensor = this->tensor();
  order_ = tensor.order();
  shape_ = tensor.shape();
  block_base_.clear();
  block_ptr_.clear();
  const nnz_t n = tensor.nnz();

  // Sort nonzeros by block key (the per-mode high bits, lexicographic),
  // breaking ties by the full coordinates for in-block locality.
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  const auto block_of = [&](mode_t m, nnz_t i) {
    return tensor.index(m, i) >> bits_;
  };
  std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (mode_t m = 0; m < order_; ++m) {
      const index_t ba = block_of(m, a);
      const index_t bb = block_of(m, b);
      if (ba != bb) return ba < bb;
    }
    for (mode_t m = 0; m < order_; ++m) {
      const index_t ia = tensor.index(m, a);
      const index_t ib = tensor.index(m, b);
      if (ia != ib) return ia < ib;
    }
    return false;
  });

  const auto same_block = [&](nnz_t a, nnz_t b) {
    for (mode_t m = 0; m < order_; ++m)
      if (block_of(m, a) != block_of(m, b)) return false;
    return true;
  };

  local_.assign(order_, {});
  for (auto& l : local_) l.resize(n);
  vals_.resize(n);
  for (nnz_t p = 0; p < n; ++p) {
    const nnz_t i = perm[p];
    if (p == 0 || !same_block(i, perm[p - 1])) {
      block_ptr_.push_back(p);
      for (mode_t m = 0; m < order_; ++m)
        block_base_.push_back((tensor.index(m, i) >> bits_) << bits_);
    }
    for (mode_t m = 0; m < order_; ++m) {
      local_[m][p] = static_cast<std::uint8_t>(
          tensor.index(m, i) -
          block_base_[(block_ptr_.size() - 1) * order_ + m]);
    }
    vals_[p] = tensor.value(i);
  }
  block_ptr_.push_back(n);

  // Per-mode scatter plans: group blocks by their mode-m base.
  const nnz_t blocks = num_blocks();
  plans_.assign(order_, {});
  for (mode_t m = 0; m < order_; ++m) {
    ModePlan& plan = plans_[m];
    plan.perm.resize(blocks);
    std::iota(plan.perm.begin(), plan.perm.end(), nnz_t{0});
    std::stable_sort(plan.perm.begin(), plan.perm.end(),
                     [&](nnz_t a, nnz_t b) {
                       return block_base_[a * order_ + m] <
                              block_base_[b * order_ + m];
                     });
    for (nnz_t p = 0; p < blocks; ++p) {
      const index_t base = block_base_[plan.perm[p] * order_ + m];
      if (plan.bases.empty() || plan.bases.back() != base) {
        plan.bases.push_back(base);
        plan.group_start.push_back(p);
      }
    }
    plan.group_start.push_back(blocks);
    // nnz weights for the tile partitioner: per block (in perm order) and
    // cumulative per base group.
    plan.block_nnz.resize(blocks);
    plan.group_nnz.assign(1, 0);
    for (std::size_t g = 0; g + 1 < plan.group_start.size(); ++g) {
      nnz_t w = 0;
      for (nnz_t p = plan.group_start[g]; p < plan.group_start[g + 1]; ++p) {
        plan.block_nnz[p] =
            block_ptr_[plan.perm[p] + 1] - block_ptr_[plan.perm[p]];
        w += plan.block_nnz[p];
      }
      plan.group_nnz.push_back(plan.group_nnz.back() + w);
      plan.max_group = std::max(plan.max_group, w);
    }
  }
  mk_ = mk::Kernel(rank);
  if (rank > 0)
    workspace().reserve(effective_threads(), mk_.padded() * sizeof(real_t));
}

void BlockedCooEngine::do_compute(mode_t mode,
                                  const std::vector<Matrix>& factors,
                                  Matrix& out) {
  MDCP_CHECK_MSG(factors.size() == order_, "one factor per mode required");
  MDCP_CHECK(mode < order_);
  const index_t r = factors[0].cols();
  for (mode_t m = 0; m < order_; ++m) {
    MDCP_CHECK_MSG(factors[m].rows() == shape_[m] && factors[m].cols() == r,
                   "factor shape mismatch in mode " << m);
  }
  out.resize(shape_[mode], r, 0);

  ModePlan& plan = plans_[mode];
  Workspace& ws = workspace();

  const sched::WorkShape shape{.total = vals_.size(),
                               .max_unit = plan.max_group,
                               .units = plan.bases.size(),
                               .out_rows = shape_[mode],
                               .rank = r,
                               .shared_writes = true};
  const sched::Decision d =
      sched::choose_schedule(shape, effective_threads(), schedule_mode());
  record_schedule(d);
  if (mk_.rank() != r) mk_ = mk::Kernel(r);
  record_tile(mk_.tile());
  const mk::Kernel mk = mk_;

  std::array<mode_t, kMaxOrder> oth{};
  mode_t no = 0;
  for (mode_t m = 0; m < order_; ++m)
    if (m != mode) oth[no++] = m;

  // Accumulates blocks perm[group_start[g]+begin, group_start[g]+end) of
  // base group g into `dst` (the output matrix or a private partial slab).
  // `tmp` is a slab-origin Hadamard accumulator (64-byte aligned).
  const auto accumulate = [&](nnz_t g, nnz_t begin, nnz_t end, real_t* tmp,
                              real_t* dst) {
    tmp = mk::assume_aligned(tmp);
    for (nnz_t bp = plan.group_start[g] + begin; bp < plan.group_start[g] + end;
         ++bp) {
      const nnz_t blk = plan.perm[bp];
      const index_t* base = &block_base_[blk * order_];
      for (nnz_t p = block_ptr_[blk]; p < block_ptr_[blk + 1]; ++p) {
        const real_t v = vals_[p];
        real_t* drow =
            dst + static_cast<nnz_t>(base[mode] + local_[mode][p]) * r;
        const auto frow = [&](mode_t j) {
          const mode_t m = oth[j];
          return factors[m].row(base[m] + local_[m][p]).data();
        };
        if (no == 2) {
          mk.fused2_accum(drow, frow(0), frow(1), v);
        } else if (no == 3) {
          mk.fused3_accum(drow, frow(0), frow(1), frow(2), v);
        } else if (no == 1) {
          mk.axpy_accum(drow, frow(0), v);
        } else {
          mk.fill(tmp, v);
          for (mode_t j = 0; j < no; ++j) mk.hadamard(tmp, frow(j));
          mk.accum(drow, tmp);
        }
      }
    }
  };
  const auto group_items = [&](nnz_t g) {
    return plan.group_start[g + 1] - plan.group_start[g];
  };

  if (d.schedule == sched::Schedule::kOwner) {
    const sched::TilePlan& tp = sched::cached_tiles(
        plan.owner, d.tiles,
        [&](int n) { return sched::tile_groups(plan.group_nnz, n); });
    // Serial scratch acquisition: growth must not throw inside the region.
    ws.reserve(effective_threads(), mk_.padded() * sizeof(real_t));
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const auto tmp = ws.thread_scratch<real_t>(mk_.padded());
#pragma omp for schedule(dynamic, 1)
      for (int tile = 0; tile < tp.tiles(); ++tile) {
        // Whole base groups: each owns output rows [base, base+2^bits).
        sched::for_each_group_range(tp, tile, group_items,
                                    [&](nnz_t g, nnz_t begin, nnz_t end) {
                                      accumulate(g, begin, end, tmp.data(),
                                                 out.data());
                                    });
      }
    }
  } else {
    const sched::TilePlan& tp = sched::cached_tiles(
        plan.split, d.tiles, [&](int n) {
          return sched::tile_items_split(plan.block_nnz, plan.group_start, n);
        });
    const nnz_t out_elems = static_cast<nnz_t>(shape_[mode]) * r;
    ws.reserve(effective_threads(),
               (mk_.padded() + out_elems) * sizeof(real_t));
    sched::PartialSet parts;
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const int team = team_size();
      const int tid = thread_id();
      // Accumulator first (padded stride) so both it and the partial slab
      // stay 64-byte aligned.
      const auto slab = ws.thread_scratch<real_t>(mk_.padded() + out_elems);
      real_t* tmp = slab.data();
      real_t* partial = tmp + mk_.padded();
      std::fill(partial, partial + out_elems, real_t{0});
      parts.publish(tid, partial);
      for (int tile = tid; tile < tp.tiles(); tile += team) {
        sched::for_each_group_range(tp, tile, group_items,
                                    [&](nnz_t g, nnz_t begin, nnz_t end) {
                                      accumulate(g, begin, end, tmp, partial);
                                    });
      }
#pragma omp barrier
      parts.combine_into(out.data(), team, chunk_range(out_elems, team, tid));
    }
    count_flops(sched::reduction_flops(d.tiles, shape_[mode], r));
  }
  count_flops(static_cast<std::uint64_t>(vals_.size()) * r * order_);
}

std::size_t BlockedCooEngine::memory_bytes() const {
  std::size_t b = block_base_.size() * sizeof(index_t) +
                  block_ptr_.size() * sizeof(nnz_t) +
                  vals_.size() * sizeof(real_t);
  for (const auto& l : local_) b += l.size() * sizeof(std::uint8_t);
  for (const auto& p : plans_) {
    b += p.perm.size() * sizeof(nnz_t) + p.bases.size() * sizeof(index_t) +
         p.group_start.size() * sizeof(nnz_t);
  }
  return b;
}

}  // namespace mdcp
