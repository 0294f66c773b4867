#include "dtree/dimension_tree.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "dtree/symbolic.hpp"
#include "util/error.hpp"

namespace mdcp {

TreeSpec TreeSpec::flat(std::span<const mode_t> order) {
  TreeSpec root;
  root.modes.assign(order.begin(), order.end());
  for (mode_t m : order) {
    TreeSpec leaf;
    leaf.modes = {m};
    root.children.push_back(std::move(leaf));
  }
  return root;
}

TreeSpec TreeSpec::three_level(std::span<const mode_t> order, mode_t split) {
  MDCP_CHECK_MSG(split >= 1 && split < order.size(),
                 "three_level split must be in [1, order)");
  const auto make_group = [](std::span<const mode_t> modes) {
    if (modes.size() == 1) {
      TreeSpec leaf;
      leaf.modes = {modes[0]};
      return leaf;
    }
    TreeSpec group = flat(modes);
    return group;
  };
  TreeSpec root;
  root.modes.assign(order.begin(), order.end());
  root.children.push_back(make_group(order.subspan(0, split)));
  root.children.push_back(make_group(order.subspan(split)));
  return root;
}

TreeSpec TreeSpec::bdt(std::span<const mode_t> order) {
  MDCP_CHECK(!order.empty());
  TreeSpec node;
  node.modes.assign(order.begin(), order.end());
  if (order.size() == 1) return node;
  const std::size_t half = (order.size() + 1) / 2;
  node.children.push_back(bdt(order.subspan(0, half)));
  node.children.push_back(bdt(order.subspan(half)));
  return node;
}

namespace {

void validate_rec(const TreeSpec& spec) {
  if (spec.is_leaf()) {
    MDCP_CHECK_MSG(spec.modes.size() == 1,
                   "leaf spec must hold exactly one mode");
    return;
  }
  MDCP_CHECK_MSG(spec.children.size() >= 2,
                 "internal tree node must have >= 2 children");
  // Children's mode sets must partition the parent's.
  std::vector<mode_t> merged;
  for (const auto& c : spec.children) {
    MDCP_CHECK_MSG(!c.modes.empty(), "child spec with empty mode set");
    merged.insert(merged.end(), c.modes.begin(), c.modes.end());
    validate_rec(c);
  }
  auto parent_sorted = spec.modes;
  std::sort(parent_sorted.begin(), parent_sorted.end());
  std::sort(merged.begin(), merged.end());
  MDCP_CHECK_MSG(parent_sorted == merged,
                 "children mode sets must partition the parent's");
}

}  // namespace

void TreeSpec::validate(mode_t order) const {
  auto sorted = modes;
  std::sort(sorted.begin(), sorted.end());
  MDCP_CHECK_MSG(sorted.size() == order, "root spec must cover all modes");
  for (mode_t m = 0; m < order; ++m)
    MDCP_CHECK_MSG(sorted[m] == m, "root spec modes must be 0..order-1");
  validate_rec(*this);
}

std::string TreeSpec::to_string() const {
  std::ostringstream os;
  if (is_leaf()) {
    os << modes[0];
    return os.str();
  }
  os << '(';
  for (std::size_t c = 0; c < children.size(); ++c) {
    if (c) os << ',';
    os << children[c].to_string();
  }
  os << ')';
  return os.str();
}

std::size_t DimensionTree::Node::symbolic_bytes() const {
  std::size_t b = 0;
  for (const auto& a : idx) b += a.size() * sizeof(index_t);
  b += red_ptr.size() * sizeof(nnz_t);
  b += red_ids.size() * sizeof(nnz_t);
  b += red_vals.size() * sizeof(real_t);
  for (const auto& a : red_idx) b += a.size() * sizeof(index_t);
  return b;
}

DimensionTree::DimensionTree(const CooTensor& tensor, const TreeSpec& spec)
    : tensor_(&tensor) {
  spec.validate(tensor.order());
  MDCP_CHECK_MSG(tensor.order() >= 2, "dimension trees need order >= 2");

  // Flatten the spec into nodes, BFS so parents precede children.
  struct Item {
    const TreeSpec* spec;
    int parent;
  };
  std::queue<Item> q;
  q.push({&spec, -1});
  leaf_of_mode_.assign(tensor.order(), -1);
  while (!q.empty()) {
    const Item it = q.front();
    q.pop();
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    Node& n = nodes_.back();
    n.parent = it.parent;
    n.modes = it.spec->modes;
    std::sort(n.modes.begin(), n.modes.end());
    for (mode_t m : n.modes) n.mode_set |= mode_set_t{1} << m;
    if (it.parent >= 0) {
      Node& p = nodes_[static_cast<std::size_t>(it.parent)];
      p.children.push_back(id);
      for (mode_t m : p.modes)
        if (!mode_in(n.mode_set, m)) n.delta.push_back(m);
    }
    if (it.spec->is_leaf()) leaf_of_mode_[n.modes[0]] = id;
    for (const auto& c : it.spec->children) q.push({&c, id});
    bfs_.push_back(id);
  }
  for (mode_t m = 0; m < tensor.order(); ++m)
    MDCP_CHECK_MSG(leaf_of_mode_[m] >= 0, "missing leaf for mode " << m);

  build_symbolic(*this);
}

std::span<const index_t> DimensionTree::node_mode_index(int which,
                                                        mode_t m) const {
  const Node& n = node(which);
  if (n.is_root()) return tensor_->mode_indices(m);
  const auto pos = static_cast<std::size_t>(
      std::find(n.modes.begin(), n.modes.end(), m) - n.modes.begin());
  MDCP_CHECK_MSG(pos < n.modes.size(),
                 "mode " << m << " not in node's mode set");
  return {n.idx[pos].data(), n.idx[pos].size()};
}

nnz_t DimensionTree::node_tuples(int which) const {
  const Node& n = node(which);
  return n.is_root() ? tensor_->nnz() : n.tuples;
}

std::size_t DimensionTree::symbolic_bytes() const {
  std::size_t b = 0;
  for (const auto& n : nodes_) b += n.symbolic_bytes();
  return b;
}

std::size_t DimensionTree::value_bytes() const {
  std::size_t b = 0;
  for (const auto& n : nodes_) b += n.values.size() * sizeof(real_t);
  return b;
}

}  // namespace mdcp
