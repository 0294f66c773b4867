#include "model/strategy.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "util/error.hpp"

namespace mdcp {

std::vector<std::vector<mode_t>> candidate_mode_orders(
    const CooTensor& tensor) {
  const mode_t order = tensor.order();
  std::vector<mode_t> natural(order);
  std::iota(natural.begin(), natural.end(), mode_t{0});

  auto asc = natural;
  std::stable_sort(asc.begin(), asc.end(), [&](mode_t a, mode_t b) {
    return tensor.dim(a) < tensor.dim(b);
  });
  auto desc = natural;
  std::stable_sort(desc.begin(), desc.end(), [&](mode_t a, mode_t b) {
    return tensor.dim(a) > tensor.dim(b);
  });

  std::vector<std::vector<mode_t>> orders{natural};
  if (asc != natural) orders.push_back(asc);
  if (desc != natural && desc != asc) orders.push_back(desc);
  return orders;
}

TreeSpec greedy_tree(const CooTensor& tensor, ProjectionCounter& counter) {
  const mode_t order = tensor.order();
  MDCP_CHECK(order >= 2);
  struct Group {
    TreeSpec spec;
    mode_set_t set = 0;
  };
  std::vector<Group> groups;
  for (mode_t m = 0; m < order; ++m) {
    Group g;
    g.spec.modes = {m};
    g.set = mode_set_t{1} << m;
    groups.push_back(std::move(g));
  }

  const auto merge = [&](std::size_t i, std::size_t j) {
    Group merged;
    merged.set = groups[i].set | groups[j].set;
    merged.spec.modes = groups[i].spec.modes;
    merged.spec.modes.insert(merged.spec.modes.end(),
                             groups[j].spec.modes.begin(),
                             groups[j].spec.modes.end());
    std::sort(merged.spec.modes.begin(), merged.spec.modes.end());
    merged.spec.children.push_back(std::move(groups[i].spec));
    merged.spec.children.push_back(std::move(groups[j].spec));
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(j));
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(i));
    groups.push_back(std::move(merged));
  };

  while (groups.size() > 2) {
    std::size_t bi = 0, bj = 1;
    nnz_t best = ~nnz_t{0};
    for (std::size_t i = 0; i < groups.size(); ++i) {
      for (std::size_t j = i + 1; j < groups.size(); ++j) {
        const nnz_t c = counter.count(groups[i].set | groups[j].set);
        if (c < best) {
          best = c;
          bi = i;
          bj = j;
        }
      }
    }
    merge(bi, bj);
  }

  TreeSpec root;
  for (mode_t m = 0; m < order; ++m) root.modes.push_back(m);
  root.children.push_back(std::move(groups[0].spec));
  root.children.push_back(std::move(groups[1].spec));
  return root;
}

std::vector<Strategy> enumerate_strategies(const CooTensor& tensor,
                                           ProjectionCounter* counter) {
  const mode_t order = tensor.order();
  MDCP_CHECK_MSG(order >= 2, "strategies need order >= 2");

  const char* order_tag[] = {"nat", "asc", "desc"};
  const auto orders = candidate_mode_orders(tensor);

  std::vector<Strategy> out;
  std::set<std::string> seen;
  const auto add = [&](TreeSpec spec, std::string strategy_name) {
    const std::string key = spec.to_string();
    if (!seen.insert(key).second) return;
    out.push_back({std::move(spec), std::move(strategy_name)});
  };

  for (std::size_t oi = 0; oi < orders.size(); ++oi) {
    const auto& mo = orders[oi];
    std::string tag = oi < 3 ? order_tag[oi] : "o";
    if (oi >= 3) tag += std::to_string(oi);
    add(TreeSpec::flat(mo), "flat/" + tag);
    if (order >= 3) {
      for (mode_t s = 1; s < order; ++s) {
        add(TreeSpec::three_level(mo, s),
            "3lvl@" + std::to_string(s) + "/" + tag);
      }
    }
    add(TreeSpec::bdt(mo), "bdt/" + tag);
  }
  if (counter != nullptr && order >= 3) {
    add(greedy_tree(tensor, *counter), "greedy");
  }
  return out;
}

}  // namespace mdcp
