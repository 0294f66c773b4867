// Symbolic TTV: one-time computation of every tree node's sparsity.
//
// For each non-root node t, the parent's tuples are projected onto μ(t),
// sorted, and deduplicated. The resulting structures are
//   idx      — the distinct projected tuples (one index array per mode),
//   red_ptr/red_ids — for each tuple of t, the list of parent tuples that
//              contract onto it ("reduction set", CSR layout).
// A child of the root keeps, in place of red_ids, the tensor's values and
// the contracted modes' coordinates in that same reduction order
// (red_vals/red_idx), so its TTMV streams them.
// They stay fixed for the lifetime of the tree and are shared by all R
// columns and all CP-ALS iterations/restarts — the cost is amortized exactly
// as in the dimension-tree literature.
#pragma once

namespace mdcp {

class DimensionTree;

/// Fills the symbolic fields of every node of `tree` (called by the
/// DimensionTree constructor).
void build_symbolic(DimensionTree& tree);

}  // namespace mdcp
