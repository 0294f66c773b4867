// Dimension trees: the memoization structure for higher-order MTTKRP.
//
// A dimension tree over modes {0..N-1} assigns to every node t a mode set
// μ(t); the root holds all modes, children partition their parent's set, and
// leaf n holds {n}. Node t conceptually stores the input tensor contracted
// (TTV'd) over the modes *not* in μ(t) — a "semi-sparse" tensor whose index
// structure is the projection of the nonzeros onto μ(t) and whose values are
// dense length-R vectors. Leaf n's values are exactly the mode-n MTTKRP.
//
// Tree *shape* is the strategy knob of the model-driven framework:
//   flat        — root → N leaves: no memoization across modes, but one
//                 index-compressed contraction per mode (the "ht-tree2"
//                 configuration; comparable to SPLATT's work).
//   three_level — root → two groups → leaves: halves the root-tensor
//                 traversals (Phan et al.'s scheme generalized to sparse).
//   bdt         — balanced binary tree: O(N log N) TTVs per iteration
//                 instead of O(N²) (the full dimension-tree scheme).
// plus arbitrary custom shapes via TreeSpec.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "sched/partition.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/types.hpp"

namespace mdcp {

/// Declarative description of a dimension-tree shape. Leaves are nodes whose
/// `modes` has a single element and no children.
struct TreeSpec {
  std::vector<mode_t> modes;
  std::vector<TreeSpec> children;

  bool is_leaf() const noexcept { return children.empty(); }

  /// Root with all N leaves directly attached (no intermediates).
  static TreeSpec flat(std::span<const mode_t> order);

  /// Root → two internal group nodes (split after position `split` of
  /// `order`) → leaves. Groups of size 1 collapse into leaves directly.
  static TreeSpec three_level(std::span<const mode_t> order, mode_t split);

  /// Balanced binary dimension tree over `order`.
  static TreeSpec bdt(std::span<const mode_t> order);

  /// Throws if the spec is not a valid dimension tree over `order` modes.
  void validate(mode_t order) const;

  /// Compact human-readable form, e.g. "((0,1),(2,3))".
  std::string to_string() const;
};

/// Materialized dimension tree bound to a tensor: symbolic sparsity of every
/// node (computed once) plus lazily-managed numeric value matrices.
class DimensionTree {
 public:
  struct Node {
    mode_set_t mode_set = 0;        ///< μ(t) as bitmask
    int parent = -1;                ///< -1 for the root
    std::vector<int> children;
    std::vector<mode_t> modes;      ///< μ(t), ascending
    std::vector<mode_t> delta;      ///< μ(parent) \ μ(t): modes contracted
                                    ///< when deriving this node

    // --- symbolic sparsity (root aliases the input tensor; empty here) ---
    nnz_t tuples = 0;                       ///< projected distinct tuples
    std::vector<std::vector<index_t>> idx;  ///< [pos in modes][tuple]
    std::vector<nnz_t> red_ptr;  ///< CSR offsets of the reduction entries,
                                 ///< size tuples+1
    std::vector<nnz_t> red_ids;  ///< contributing parent tuple ids (empty
                                 ///< for children of the root)

    // --- streamed root operands (children of the root only) ---
    // The tensor's values and the contracted modes' coordinates in
    // reduction order: entry jp is the nonzero at position jp of the stable
    // sort by μ(t). The root pass reads them sequentially, with no
    // permutation of the nonzeros, so red_ids is not kept for these nodes.
    std::vector<real_t> red_vals;               ///< [entry]
    std::vector<std::vector<index_t>> red_idx;  ///< [pos in delta][entry]

    // --- numeric state ---
    Matrix values;  ///< tuples × R when materialized
    bool valid = false;

    // --- TTMV tile plans (symbolic, cached against the thread budget) ---
    nnz_t max_red = 0;              ///< heaviest reduction set (skew input)
    sched::CachedPlan owner_tiles;  ///< whole-tuple tiles
    sched::CachedPlan split_tiles;  ///< reduction-entry-granular tiles

    bool is_root() const noexcept { return parent < 0; }
    bool is_leaf() const noexcept { return children.empty(); }
    std::size_t symbolic_bytes() const;
  };

  /// Builds the tree and runs the symbolic TTV pass (projection + sort +
  /// dedup + reduction sets for every node). The tensor must outlive the
  /// tree. The tensor must be coalesced.
  DimensionTree(const CooTensor& tensor, const TreeSpec& spec);

  const CooTensor& tensor() const noexcept { return *tensor_; }
  mode_t order() const noexcept { return tensor_->order(); }

  int root() const noexcept { return 0; }
  int leaf_for_mode(mode_t m) const { return leaf_of_mode_.at(m); }
  int size() const noexcept { return static_cast<int>(nodes_.size()); }

  Node& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }
  const Node& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }

  /// Nodes in BFS order from the root (parents precede children).
  const std::vector<int>& bfs_order() const noexcept { return bfs_; }

  /// Index array of `which` node for mode m. For the root this aliases the
  /// tensor's coordinate array. m must be in the node's mode set.
  std::span<const index_t> node_mode_index(int which, mode_t m) const;

  /// Number of projected tuples of a node (root: nnz of the tensor).
  nnz_t node_tuples(int which) const;

  /// Bytes of all symbolic structures (index arrays, reduction sets and
  /// streamed root operands).
  std::size_t symbolic_bytes() const;

  /// Bytes of currently materialized value matrices (their entries; the
  /// storage an invalidated node keeps for re-evaluation is not counted).
  std::size_t value_bytes() const;

 private:
  friend void build_symbolic(DimensionTree& tree);

  const CooTensor* tensor_;
  std::vector<Node> nodes_;
  std::vector<int> bfs_;
  std::vector<int> leaf_of_mode_;
};

}  // namespace mdcp
