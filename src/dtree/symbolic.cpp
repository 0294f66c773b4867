#include "dtree/symbolic.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <vector>

#include "dtree/dimension_tree.hpp"
#include "obs/trace.hpp"
#include "tensor/radix_sort.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

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

    const auto starts_group = [&](nnz_t p) {
      if (p == 0) return true;
      for (const auto& k : keys)
        if (k.values[perm[p]] != k.values[perm[p - 1]]) return true;
      return false;
    };

    // Group equal keys: each group becomes one tuple of this node, and the
    // group's members form its reduction set. The calling thread appends
    // the groups of the first chunk of the sorted ids as it finds them, as
    // a serial build does. Every other chunk counts its group starts, then
    // writes its groups from the running total of the chunks before it.
    const int parts = num_threads();
    std::vector<nnz_t> first(parts + 1, 0);  // per chunk: first group
    n.idx.assign(n.modes.size(), {});
    n.red_ptr.clear();
    std::exception_ptr failed;  // an append that failed; rethrown below
    parallel_chunks(parts, [&](int c) {
      const Range r = chunk_range(pcount, parts, c);
      nnz_t groups = 0;
      for (nnz_t p = r.begin; p < r.end; ++p) {
        if (!starts_group(p)) continue;
        ++groups;
        if (c != 0) continue;
        try {
          n.red_ptr.push_back(p);
          for (std::size_t m = 0; m < keys.size(); ++m)
            n.idx[m].push_back(keys[m].values[perm[p]]);
        } catch (...) {
          failed = std::current_exception();
          return;
        }
      }
      first[c + 1] = groups;
    });
    if (failed) std::rethrow_exception(failed);
    for (int c = 0; c < parts; ++c) first[c + 1] += first[c];
    const nnz_t tuples = first[parts];
    n.red_ptr.resize(tuples + 1);
    for (auto& col : n.idx) col.resize(tuples);
    parallel_chunks(parts, [&](int c) {
      if (c == 0) return;  // appended above
      const Range r = chunk_range(pcount, parts, c);
      nnz_t g = first[c];
      for (nnz_t p = r.begin; p < r.end; ++p) {
        if (!starts_group(p)) continue;
        n.red_ptr[g] = p;
        for (std::size_t m = 0; m < keys.size(); ++m)
          n.idx[m][g] = keys[m].values[perm[p]];
        ++g;
      }
    });
    n.red_ptr[tuples] = pcount;
    if (tree.node(parent).is_root()) {
      // Store the root pass's operands in reduction order; the pass then
      // needs no permutation, so red_ids stays empty.
      const CooTensor& t = tree.tensor();
      const std::span<const real_t> vals = t.values();
      n.red_vals.resize(pcount);
      n.red_idx.assign(n.delta.size(), {});
      for (auto& col : n.red_idx) col.resize(pcount);
      parallel_chunks(parts, [&](int c) {
        const Range r = chunk_range(pcount, parts, c);
        real_t* const out_vals = n.red_vals.data();
        for (nnz_t p = r.begin; p < r.end; ++p) out_vals[p] = vals[perm[p]];
        for (std::size_t d = 0; d < n.delta.size(); ++d) {
          const index_t* const coords = t.mode_indices(n.delta[d]).data();
          index_t* const out = n.red_idx[d].data();
          for (nnz_t p = r.begin; p < r.end; ++p) out[p] = coords[perm[p]];
        }
      });
    } else {
      n.red_ids = std::move(perm);
    }
    n.tuples = tuples;
    MDCP_CHECK(n.tuples <= pcount);
    std::vector<nnz_t> widest(parts, 0);  // per chunk: largest group
    parallel_chunks(parts, [&](int c) {
      const Range r = chunk_range(tuples, parts, c);
      nnz_t w = 0;
      for (nnz_t g = r.begin; g < r.end; ++g)
        w = std::max(w, n.red_ptr[g + 1] - n.red_ptr[g]);
      widest[c] = w;
    });
    n.max_red = *std::max_element(widest.begin(), widest.end());
    n.owner_tiles = {};
    n.split_tiles = {};
  }
}

}  // namespace mdcp
