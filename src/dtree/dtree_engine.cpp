#include "dtree/dtree_engine.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "dtree/numeric.hpp"
#include "mttkrp/microkernel.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mdcp {

DTreeMttkrpEngine::DTreeMttkrpEngine(TreeSpec spec, std::string display_name,
                                     KernelContext ctx)
    : MttkrpEngine(ctx), spec_(std::move(spec)), name_(std::move(display_name)) {}

DTreeMttkrpEngine::DTreeMttkrpEngine(TreeRecipe recipe,
                                     std::string display_name,
                                     KernelContext ctx)
    : MttkrpEngine(ctx), recipe_(recipe), name_(std::move(display_name)) {}

DTreeMttkrpEngine::DTreeMttkrpEngine(const CooTensor& tensor,
                                     const TreeSpec& spec,
                                     std::string display_name,
                                     KernelContext ctx)
    : MttkrpEngine(ctx), spec_(spec), name_(std::move(display_name)) {
  prepare(tensor);
}

void DTreeMttkrpEngine::do_prepare(index_t rank) {
  if (recipe_ != nullptr) spec_ = recipe_(tensor().order());
  tree_ = std::make_unique<DimensionTree>(tensor(), spec_);
  // compute() writes each output row once, zeroing the rows between two
  // leaf tuples as it copies them. That needs every leaf's index strictly
  // ascending, as the symbolic build's stable sort and dedup leave it.
  for (mode_t m = 0; m < tree_->order(); ++m) {
    const auto rows = tree_->node_mode_index(tree_->leaf_for_mode(m), m);
    MDCP_CHECK_MSG(std::adjacent_find(rows.begin(), rows.end(),
                                      std::greater_equal<>()) == rows.end() &&
                       (rows.empty() || rows.back() < tensor().dim(m)),
                   "leaf index of mode " << m << " not strictly ascending");
  }
  rank_ = 0;
  peak_bytes_ = memory_bytes();
  if (rank > 0)
    workspace().reserve(effective_threads(),
                        mk::padded_rank(rank) * sizeof(real_t));
}

void DTreeMttkrpEngine::do_compute(mode_t mode,
                                   const std::vector<Matrix>& factors,
                                   Matrix& out) {
  DimensionTree& tree = *tree_;
  const index_t r = check_factors(tree.tensor(), factors);
  MDCP_CHECK(mode < tree.order());
  if (r != rank_) {
    // Rank changed since the last call: every cached value matrix has the
    // wrong width.
    invalidate_all_nodes(tree);
    rank_ = r;
  }

  const int leaf = tree.leaf_for_mode(mode);
  record_tile(mk::select_tile(r));
  TtmvSched ts;
  ts.threads = effective_threads();
  ts.mode = schedule_mode();
  count_flops(compute_node_values(tree, leaf, factors, r, workspace(), &ts));
  peak_bytes_ = std::max(peak_bytes_, memory_bytes());

  // Scatter the leaf tuples into the dense output, writing each row once:
  // tuple t zeroes the rows of unused indices below its own (the MTTKRP of
  // an empty slice is +0) and copies its row; the last tuple also zeroes
  // the rows above it. Pure copy with one writer per row — always
  // owner-computes, not counted as a launch.
  const auto& ln = tree.node(leaf);
  const index_t dim = tree.tensor().dim(mode);
  out.resize_for_overwrite(dim, r);
  const auto rows = tree.node_mode_index(leaf, mode);
  real_t* const base = out.data();
  const auto row_at = [&](index_t i) {
    return base + static_cast<std::size_t>(i) * r;
  };
  if (ln.tuples == 0) out.zero();
  parallel_for(ln.tuples, [&](nnz_t t) {
    const index_t i = rows[t];
    std::fill(row_at(t == 0 ? 0 : rows[t - 1] + 1), row_at(i), real_t{0});
    const auto src = ln.values.row(static_cast<index_t>(t));
    std::copy(src.begin(), src.end(), row_at(i));
    if (t + 1 == ln.tuples) std::fill(row_at(i + 1), row_at(dim), real_t{0});
  });

  if (ts.owner_launches + ts.privatized_launches > 0) {
    // The decision of the leaf's own TTMV (the last launch in the chain)
    // defines last_schedule; intermediate node launches are counted too.
    record_schedule(ts.last, ts.owner_launches, ts.privatized_launches);
  } else {
    // Fully memoized compute (every node served from cache): report the
    // no-op so benches still see a schedule column.
    record_schedule({sched::Schedule::kOwner, 1, 0.0, 0, "memoized"}, 1, 0);
  }
  if (ts.privatized_launches > 0)
    count_flops(sched::reduction_flops(ts.last.tiles,
                                       static_cast<index_t>(ln.tuples), r));
}

void DTreeMttkrpEngine::factor_updated(mode_t mode) {
  if (!tree_) return;
  MDCP_CHECK(mode < tree_->order());
  invalidate_mode(*tree_, mode);
}

void DTreeMttkrpEngine::invalidate_all() {
  if (tree_) invalidate_all_nodes(*tree_);
}

std::size_t DTreeMttkrpEngine::memory_bytes() const {
  if (!tree_) return 0;
  return tree_->symbolic_bytes() + tree_->value_bytes();
}

namespace {
std::vector<mode_t> natural_order(mode_t order) {
  std::vector<mode_t> o(order);
  std::iota(o.begin(), o.end(), mode_t{0});
  return o;
}
}  // namespace

TreeSpec flat_tree(mode_t order) {
  return TreeSpec::flat(natural_order(order));
}

TreeSpec three_level_tree(mode_t order) {
  return TreeSpec::three_level(natural_order(order),
                               static_cast<mode_t>((order + 1) / 2));
}

TreeSpec bdt_tree(mode_t order) { return TreeSpec::bdt(natural_order(order)); }

std::unique_ptr<DTreeMttkrpEngine> make_dtree_flat(const CooTensor& tensor,
                                                   KernelContext ctx) {
  return std::make_unique<DTreeMttkrpEngine>(
      tensor, flat_tree(tensor.order()), "dtree-flat", ctx);
}

std::unique_ptr<DTreeMttkrpEngine> make_dtree_three_level(
    const CooTensor& tensor, KernelContext ctx) {
  return std::make_unique<DTreeMttkrpEngine>(
      tensor, three_level_tree(tensor.order()), "dtree-3lvl", ctx);
}

std::unique_ptr<DTreeMttkrpEngine> make_dtree_bdt(const CooTensor& tensor,
                                                  KernelContext ctx) {
  return std::make_unique<DTreeMttkrpEngine>(
      tensor, bdt_tree(tensor.order()), "dtree-bdt", ctx);
}

}  // namespace mdcp
