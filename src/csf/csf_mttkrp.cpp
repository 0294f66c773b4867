#include "csf/csf_mttkrp.hpp"

#include <algorithm>

#include "mttkrp/microkernel.hpp"
#include "sched/launch.hpp"
#include "util/error.hpp"

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
  MDCP_CHECK_MSG(factors.size() == csf.order(), "one factor per mode required");
  const index_t r = factors[0].cols();
  const index_t rows = csf.shape()[csf.mode_order()[0]];
  if (mk_.rank() != r) mk_ = mk::Kernel(r);
  record_tile(mk_.tile());

  if (csf.order() == 1) {
    // Degenerate: the MTTKRP of a vector is the vector itself, each nonzero
    // broadcast over all R columns. Serial; nothing to schedule.
    out.resize(rows, r, 0);
    for (nnz_t f = 0; f < csf.nnz(); ++f)
      mk_.add_scalar(out.row(csf.fids(0)[f]).data(), csf.values()[f]);
    record_schedule({sched::Schedule::kOwner, 1, 0.0, 0, "degenerate-order1"});
    count_flops(static_cast<std::uint64_t>(csf.nnz()) * r);
    return;
  }

  SchedInfo& si = sched_[mode];
  const auto root_ptr = csf.fptr(0);
  const auto root_ids = csf.fids(0);
  const sched::WorkShape shape{.total = csf.nnz(),
                               .max_unit = si.max_root,
                               .units = csf.num_fibers(0),
                               .out_rows = rows,
                               .rank = r,
                               .shared_writes = true};
  const sched::Decision d =
      sched::choose_schedule(shape, effective_threads(), schedule_mode());
  record_schedule(d);
  const bool owner = d.schedule == sched::Schedule::kOwner;
  // Owner tiles hold whole root fibers; split tiles cut between the level-1
  // child subtrees of one.
  const sched::TilePlan& tp = sched::cached_tiles(
      owner ? si.owner : si.split, d.tiles, [&](int n) {
        return owner ? sched::tile_groups(si.root_nnz, n)
                     : sched::tile_items_split(si.lvl1_nnz, root_ptr, n);
      });
  const auto root_children = [&](nnz_t f) {
    return root_ptr[f + 1] - root_ptr[f];
  };
  const std::size_t acc_elems = Scratch::reals(csf.order(), r);

  // Owner tiles accumulate into `out`; a privatized launch rewrites it.
  out.resize_for_overwrite(rows, r);
  if (owner) out.zero();
  count_flops(sched::run_launch(
      d, tp, workspace(), effective_threads(), acc_elems, out.data(),
      out.size(), [&](int tile, real_t* slab, real_t* dst) {
        const Scratch s{{slab, acc_elems}, mk_};
        // Level-1 children [root_ptr[f]+begin, root_ptr[f]+end) of root
        // fiber f accumulate into row root_ids[f] of `dst`.
        sched::for_each_group_range(
            tp, tile, root_children, [&](nnz_t f, nnz_t begin, nnz_t end) {
              real_t* drow = dst + static_cast<nnz_t>(root_ids[f]) * r;
              for (nnz_t c = root_ptr[f] + begin; c < root_ptr[f] + end; ++c) {
                subtree(csf, factors, 1, c, s);
                s.mk.accum(drow, s.acc(1));
              }
            });
      }));
  count_flops(static_cast<std::uint64_t>(csf.nnz()) * r * csf.order());
}

std::size_t CsfMttkrpEngine::memory_bytes() const {
  std::size_t b = 0;
  for (const auto& c : csfs_) b += c->memory_bytes();
  return b;
}

}  // namespace mdcp
