#include "dtree/symbolic.hpp"

#include <algorithm>
#include <span>

#include "dtree/dimension_tree.hpp"
#include "obs/trace.hpp"
#include "tensor/radix_sort.hpp"
#include "util/error.hpp"

namespace mdcp {

void build_symbolic(DimensionTree& tree) {
  MDCP_TRACE_SPAN("dtree.symbolic", "nodes",
                  static_cast<std::int64_t>(tree.size()));
  // BFS order guarantees each parent is finalized before its children.
  for (int id : tree.bfs_order()) {
    auto& n = tree.node(id);
    if (n.is_root()) continue;

    const int parent = n.parent;
    const nnz_t pcount = tree.node_tuples(parent);

    // Sort parent tuple ids by the parent's index arrays for this node's
    // modes (the projected key).
    std::vector<SortKey> keys;
    keys.reserve(n.modes.size());
    for (mode_t m : n.modes)
      keys.push_back({tree.node_mode_index(parent, m), tree.tensor().dim(m)});
    std::vector<nnz_t> perm = radix_sort_permutation(keys, pcount);

    const auto same_key = [&](nnz_t a, nnz_t b) {
      for (const auto& k : keys)
        if (k.values[a] != k.values[b]) return false;
      return true;
    };

    // Group equal keys: each group becomes one tuple of this node, and the
    // group's members form its reduction set.
    n.idx.assign(n.modes.size(), {});
    n.red_ids = std::move(perm);
    n.red_ptr.clear();
    for (nnz_t p = 0; p < pcount; ++p) {
      if (p == 0 || !same_key(n.red_ids[p], n.red_ids[p - 1])) {
        n.red_ptr.push_back(p);
        for (std::size_t m = 0; m < keys.size(); ++m)
          n.idx[m].push_back(keys[m].values[n.red_ids[p]]);
      }
    }
    n.red_ptr.push_back(pcount);
    if (tree.node(parent).is_root()) {
      // Store the root pass's operands in reduction order; the pass then
      // needs no permutation, so red_ids is freed.
      const CooTensor& t = tree.tensor();
      const std::span<const real_t> vals = t.values();
      n.red_vals.resize(pcount);
      for (nnz_t p = 0; p < pcount; ++p) n.red_vals[p] = vals[n.red_ids[p]];
      n.red_idx.assign(n.delta.size(), {});
      for (std::size_t d = 0; d < n.delta.size(); ++d) {
        const auto coords = t.mode_indices(n.delta[d]);
        n.red_idx[d].resize(pcount);
        for (nnz_t p = 0; p < pcount; ++p)
          n.red_idx[d][p] = coords[n.red_ids[p]];
      }
      std::vector<nnz_t>().swap(n.red_ids);
    }
    n.tuples = n.red_ptr.size() - 1;
    MDCP_CHECK(n.tuples <= pcount);
    n.max_red = 0;
    for (nnz_t t = 0; t < n.tuples; ++t)
      n.max_red = std::max(n.max_red, n.red_ptr[t + 1] - n.red_ptr[t]);
    n.owner_tiles = {};
    n.split_tiles = {};
  }
}

}  // namespace mdcp
