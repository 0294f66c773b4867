// Knowledge-base link prediction on a NELL-style (entity, relation, entity)
// tensor: decompose the observed triples, then verify that the model scores
// held-out true triples above random corrupted ones (a simple AUC probe).
#include <algorithm>
#include <array>
#include <cstdio>

#include "mdcp.hpp"

int main() {
  using namespace mdcp;

  // Synthetic KB: 3k entities, 40 relations, clustered structure (entities
  // participate in communities, as in real knowledge graphs). Kept dense
  // enough per community that rank-24 CP can learn the block structure.
  const shape_t shape{3000, 40, 3000};
  CooTensor triples = generate_clustered(
      shape, 150000, {.clusters = 48, .spread = 6.0}, 777);
  std::printf("knowledge base: %s\n", triples.summary().c_str());

  // Hold out a random 5% of triples for evaluation. (The tensor is sorted
  // after coalescing, so a positional split would remove whole subjects and
  // evaluate on cold-start entities.)
  CooTensor train(shape);
  std::vector<std::array<index_t, 3>> test;
  {
    Rng holdout_rng(31337);
    std::array<index_t, 3> c{};
    for (nnz_t i = 0; i < triples.nnz(); ++i) {
      triples.coords(i, c);
      if (holdout_rng.next_real() < 0.05)
        test.push_back(c);
      else
        train.push_back(c, triples.value(i));
    }
  }

  CpAlsOptions opt;
  opt.rank = 24;
  opt.max_iterations = 20;
  opt.tolerance = 1e-5;
  opt.engine = "auto";
  const CpAlsResult result = cp_als(train, opt);
  std::printf("decomposed with %s: fit %.4f after %d iterations\n",
              result.engine_name.c_str(),
              static_cast<double>(result.final_fit()), result.iterations);

  // AUC probe: for each held-out triple, corrupt the object entity at random
  // and check whether the true triple outscores the corrupted one.
  Rng rng(4242);
  nnz_t wins = 0, ties = 0;
  for (const auto& c : test) {
    std::array<index_t, 3> corrupt = c;
    corrupt[2] = rng.next_index(shape[2]);
    const real_t st = result.model.value_at(c);
    const real_t sc = result.model.value_at(corrupt);
    if (st > sc)
      ++wins;
    else if (st == sc)
      ++ties;
  }
  const double auc =
      (static_cast<double>(wins) + 0.5 * static_cast<double>(ties)) /
      static_cast<double>(test.size());
  std::printf("held-out triples: %zu, link-prediction AUC vs corrupted "
              "objects: %.3f (0.5 = chance)\n",
              test.size(), auc);
  return 0;
}
