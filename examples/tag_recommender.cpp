// Tag recommendation on a 4-mode (user × resource × tag × week) tensor —
// the Delicious/Flickr-style workload that motivates higher-order sparse CP.
//
// A synthetic tagging history is decomposed at rank 16 with the model-driven
// engine; the resulting factors give a score s(u, r, t, w) =
// Σ_k λ_k U(u,k) R(r,k) T(t,k) W(w,k) used to rank candidate tags for a
// (user, resource) pair.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "mdcp.hpp"

int main() {
  using namespace mdcp;

  // Synthetic tagging log: 60k events over 2k users, 5k resources, 800 tags,
  // 52 weeks, with Zipf-skewed popularity in every mode.
  const shape_t shape{2000, 5000, 800, 52};
  const CooTensor events = generate_zipf(shape, 60000, 1.1, 2024);
  std::printf("tagging history: %s\n", events.summary().c_str());

  CpAlsOptions opt;
  opt.rank = 16;
  opt.max_iterations = 25;
  opt.tolerance = 1e-5;
  opt.engine = "auto";
  const CpAlsResult result = cp_als(events, opt);
  std::printf("decomposed with %s: fit %.4f after %d iterations "
              "(mttkrp %.3fs, dense %.3fs)\n",
              result.engine_name.c_str(),
              static_cast<double>(result.final_fit()), result.iterations,
              result.mttkrp_seconds, result.dense_seconds);

  // Recommend tags for one observed (user, resource, week) context (the
  // first event in the coalesced log).
  const index_t user = events.index(0, 0);
  const index_t resource = events.index(1, 0);
  const index_t week = events.index(3, 0);

  const auto& m = result.model;
  std::vector<std::pair<real_t, index_t>> scored;
  for (index_t tag = 0; tag < shape[2]; ++tag) {
    real_t s = 0;
    for (index_t k = 0; k < m.rank(); ++k) {
      s += m.weights[k] * m.factors[0](user, k) * m.factors[1](resource, k) *
           m.factors[2](tag, k) * m.factors[3](week, k);
    }
    scored.emplace_back(s, tag);
  }
  std::partial_sort(scored.begin(), scored.begin() + 5, scored.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });

  std::printf("top-5 tags for user %u / resource %u in week %u:\n", user,
              resource, week);
  for (int i = 0; i < 5; ++i)
    std::printf("  tag %4u  score %.4f\n", scored[static_cast<std::size_t>(i)].second,
                static_cast<double>(scored[static_cast<std::size_t>(i)].first));
  return 0;
}
