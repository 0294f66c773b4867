#include "csf/csf_mttkrp.hpp"

#include <algorithm>

#include "mttkrp/microkernel.hpp"
#include "sched/reduce.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// Per-thread traversal state: one length-R accumulator per CSF level,
// carved out of a single workspace slab at the padded stride, so every
// acc(l) honors the microkernel's 64-byte alignment contract.
struct Scratch {
  std::span<real_t> slab;
  mk::Kernel mk;

  static std::size_t reals(mode_t order, index_t r) {
    return static_cast<std::size_t>(order) * mk::padded_rank(r);
  }
  real_t* acc(mode_t level) const {
    return mk::assume_aligned(
        slab.data() + static_cast<std::size_t>(level) * mk.padded());
  }
};

// Accumulates g(fiber f at level l) into s.acc(l):
//   g(leaf entry)  = val · U_leafmode(fid, :)
//   g(inner fiber) = U_levelmode(fid, :) ∘ Σ_children g(child)
void subtree(const CsfTensor& csf, const std::vector<Matrix>& factors,
             mode_t level, nnz_t fiber, const Scratch& s) {
  const mode_t leaf = static_cast<mode_t>(csf.order() - 1);
  real_t* acc = s.acc(level);
  if (level == leaf) {
    const auto row = factors[csf.mode_order()[leaf]].row(csf.fids(leaf)[fiber]);
    s.mk.set_scale(acc, row.data(), csf.values()[fiber]);
    return;
  }
  s.mk.fill(acc, 0);
  const auto ptr = csf.fptr(level);
  for (nnz_t c = ptr[fiber]; c < ptr[fiber + 1]; ++c) {
    subtree(csf, factors, static_cast<mode_t>(level + 1), c, s);
    s.mk.accum(acc, s.acc(static_cast<mode_t>(level + 1)));
  }
  const auto row = factors[csf.mode_order()[level]].row(csf.fids(level)[fiber]);
  s.mk.hadamard(acc, row.data());
}

// Maps level-`from` fiber boundaries to leaf (nonzero) positions by
// composing the fptr levels: boundary b at level l becomes fptr(l)[b] at
// level l+1. Turns a boundary list into a subtree-nnz prefix.
void compose_to_leaves(const CsfTensor& csf, mode_t from,
                       std::vector<nnz_t>& bounds) {
  for (mode_t l = from; l + 1 < csf.order(); ++l) {
    const auto ptr = csf.fptr(l);
    for (auto& b : bounds) b = ptr[b];
  }
}

}  // namespace

void csf_mttkrp_root(const CsfTensor& csf, const std::vector<Matrix>& factors,
                     Matrix& out, Workspace* ws) {
  MDCP_CHECK_MSG(factors.size() == csf.order(), "one factor per mode required");
  const index_t r = factors[0].cols();
  const mode_t root_mode = csf.mode_order()[0];
  out.resize(csf.shape()[root_mode], r, 0);
  if (ws == nullptr) ws = &default_workspace();

  const mk::Kernel mk(r);
  if (csf.order() == 1) {
    // Degenerate: MTTKRP of a vector is the vector itself (the nonzero value
    // broadcast over all R columns).
    for (nnz_t f = 0; f < csf.nnz(); ++f)
      mk.add_scalar(out.row(csf.fids(0)[f]).data(), csf.values()[f]);
    return;
  }

  const nnz_t num_roots = csf.num_fibers(0);
  const auto root_ptr = csf.fptr(0);
  const auto root_ids = csf.fids(0);

  // Serial scratch acquisition: growth must not throw inside the region.
  ws->reserve(num_threads(), Scratch::reals(csf.order(), r) * sizeof(real_t));
#pragma omp parallel
  {
    const FlushSubnormals fp;
    const Scratch s{ws->thread_scratch<real_t>(Scratch::reals(csf.order(), r)),
                    mk};
#pragma omp for schedule(dynamic, 8)
    for (std::int64_t f = 0; f < static_cast<std::int64_t>(num_roots); ++f) {
      auto orow = out.row(root_ids[static_cast<nnz_t>(f)]);
      for (nnz_t c = root_ptr[static_cast<nnz_t>(f)];
           c < root_ptr[static_cast<nnz_t>(f) + 1]; ++c) {
        subtree(csf, factors, 1, c, s);
        mk.accum(orow.data(), s.acc(1));
      }
    }
  }
}

CsfMttkrpEngine::CsfMttkrpEngine(KernelContext ctx) : MttkrpEngine(ctx) {}

CsfMttkrpEngine::CsfMttkrpEngine(const CooTensor& tensor, KernelContext ctx)
    : MttkrpEngine(ctx) {
  prepare(tensor);
}

void CsfMttkrpEngine::do_prepare(index_t rank) {
  const CooTensor& t = tensor();
  csfs_.clear();
  csfs_.reserve(t.order());
  for (mode_t m = 0; m < t.order(); ++m) {
    csfs_.push_back(std::make_unique<CsfTensor>(
        t, CsfTensor::default_order(t, m)));
  }
  // Tile weights per mode: subtree nnz of every root fiber (prefix form)
  // and of every level-1 fiber (the privatized schedule's split unit).
  sched_.assign(t.order(), {});
  for (mode_t m = 0; m < t.order() && t.order() >= 2; ++m) {
    const CsfTensor& csf = *csfs_[m];
    SchedInfo& si = sched_[m];
    const nnz_t roots = csf.num_fibers(0);
    si.root_nnz.resize(roots + 1);
    for (nnz_t f = 0; f <= roots; ++f) si.root_nnz[f] = f;
    compose_to_leaves(csf, 0, si.root_nnz);
    for (nnz_t f = 0; f < roots; ++f)
      si.max_root =
          std::max(si.max_root, si.root_nnz[f + 1] - si.root_nnz[f]);
    const nnz_t lvl1 = csf.num_fibers(1);
    std::vector<nnz_t> b(lvl1 + 1);
    for (nnz_t f = 0; f <= lvl1; ++f) b[f] = f;
    compose_to_leaves(csf, 1, b);
    si.lvl1_nnz.resize(lvl1);
    for (nnz_t f = 0; f < lvl1; ++f) si.lvl1_nnz[f] = b[f + 1] - b[f];
  }
  mk_ = mk::Kernel(rank);
  if (rank > 0)
    workspace().reserve(effective_threads(),
                        Scratch::reals(t.order(), rank) * sizeof(real_t));
}

void CsfMttkrpEngine::do_compute(mode_t mode,
                                 const std::vector<Matrix>& factors,
                                 Matrix& out) {
  MDCP_CHECK(mode < csfs_.size());
  const CsfTensor& csf = *csfs_[mode];
  const index_t r = factors[0].cols();

  if (csf.order() == 1) {
    // Degenerate serial path; nothing to schedule.
    csf_mttkrp_root(csf, factors, out, ctx_.workspace);
    record_schedule({sched::Schedule::kOwner, 1, 0.0, 0, "degenerate-order1"});
    record_tile(mk::select_tile(r));
    count_flops(static_cast<std::uint64_t>(csf.nnz()) * r);
    return;
  }

  MDCP_CHECK_MSG(factors.size() == csf.order(), "one factor per mode required");
  const mode_t root_mode = csf.mode_order()[0];
  out.resize(csf.shape()[root_mode], r, 0);
  Workspace& ws = workspace();
  SchedInfo& si = sched_[mode];
  const nnz_t roots = csf.num_fibers(0);
  const auto root_ptr = csf.fptr(0);
  const auto root_ids = csf.fids(0);

  const sched::WorkShape shape{.total = csf.nnz(),
                               .max_unit = si.max_root,
                               .units = roots,
                               .out_rows = csf.shape()[root_mode],
                               .rank = r,
                               .shared_writes = true};
  const sched::Decision d =
      sched::choose_schedule(shape, effective_threads(), schedule_mode());
  record_schedule(d);
  if (mk_.rank() != r) mk_ = mk::Kernel(r);
  record_tile(mk_.tile());

  // Accumulates level-1 children [root_ptr[f]+begin, root_ptr[f]+end) of
  // root fiber f into `dst` row root_ids[f].
  const auto accumulate = [&](nnz_t f, nnz_t begin, nnz_t end,
                              const Scratch& s, real_t* dst) {
    real_t* drow = dst + static_cast<nnz_t>(root_ids[f]) * r;
    for (nnz_t c = root_ptr[f] + begin; c < root_ptr[f] + end; ++c) {
      subtree(csf, factors, 1, c, s);
      s.mk.accum(drow, s.acc(1));
    }
  };
  const auto root_children = [&](nnz_t f) {
    return root_ptr[f + 1] - root_ptr[f];
  };
  const std::size_t acc_elems = Scratch::reals(csf.order(), r);

  if (d.schedule == sched::Schedule::kOwner) {
    const sched::TilePlan& tp = sched::cached_tiles(
        si.owner, d.tiles,
        [&](int n) { return sched::tile_groups(si.root_nnz, n); });
    // Serial scratch acquisition: growth must not throw inside the region.
    ws.reserve(effective_threads(), acc_elems * sizeof(real_t));
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const Scratch s{ws.thread_scratch<real_t>(acc_elems), mk_};
#pragma omp for schedule(dynamic, 1)
      for (int tile = 0; tile < tp.tiles(); ++tile) {
        sched::for_each_group_range(
            tp, tile, root_children, [&](nnz_t f, nnz_t begin, nnz_t end) {
              accumulate(f, begin, end, s, out.data());
            });
      }
    }
  } else {
    const sched::TilePlan& tp = sched::cached_tiles(
        si.split, d.tiles, [&](int n) {
          return sched::tile_items_split(si.lvl1_nnz, root_ptr, n);
        });
    const nnz_t out_elems = static_cast<nnz_t>(csf.shape()[root_mode]) * r;
    ws.reserve(effective_threads(), (out_elems + acc_elems) * sizeof(real_t));
    sched::PartialSet parts;
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const int team = team_size();
      const int tid = thread_id();
      // Traversal accumulators first (padded strides) so every acc(l) and
      // the partial slab behind them stay 64-byte aligned.
      const auto slab = ws.thread_scratch<real_t>(acc_elems + out_elems);
      const Scratch s{slab.first(acc_elems), mk_};
      real_t* partial = slab.data() + acc_elems;
      std::fill(partial, partial + out_elems, real_t{0});
      parts.publish(tid, partial);
      for (int tile = tid; tile < tp.tiles(); tile += team) {
        sched::for_each_group_range(
            tp, tile, root_children, [&](nnz_t f, nnz_t begin, nnz_t end) {
              accumulate(f, begin, end, s, partial);
            });
      }
#pragma omp barrier
      parts.combine_into(out.data(), team, chunk_range(out_elems, team, tid));
    }
    count_flops(sched::reduction_flops(d.tiles, csf.shape()[root_mode], r));
  }
  count_flops(static_cast<std::uint64_t>(csf.nnz()) * r * csf.order());
}

std::size_t CsfMttkrpEngine::memory_bytes() const {
  std::size_t b = 0;
  for (const auto& c : csfs_) b += c->memory_bytes();
  return b;
}

}  // namespace mdcp
