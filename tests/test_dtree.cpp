#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>

#include "cpals/cpals.hpp"
#include "dtree/dimension_tree.hpp"
#include "dtree/dtree_engine.hpp"
#include "dtree/numeric.hpp"
#include "model/sketch.hpp"
#include "model/strategy.hpp"
#include "tensor/generator.hpp"
#include "tensor/stats.hpp"
#include "test_helpers.hpp"
#include "ttmv_oracle.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace mdcp {
namespace {

using mdcp::testing::pull_ttmv;
using mdcp::testing::random_factors;
using mdcp::testing::stable_reduction_order;

std::vector<mode_t> natural(mode_t n) {
  std::vector<mode_t> o(n);
  for (mode_t m = 0; m < n; ++m) o[m] = m;
  return o;
}

TEST(TreeSpec, FlatShape) {
  const auto spec = TreeSpec::flat(natural(4));
  EXPECT_EQ(spec.children.size(), 4u);
  for (const auto& c : spec.children) EXPECT_TRUE(c.is_leaf());
  EXPECT_NO_THROW(spec.validate(4));
  EXPECT_EQ(spec.to_string(), "(0,1,2,3)");
}

TEST(TreeSpec, ThreeLevelShape) {
  const auto spec = TreeSpec::three_level(natural(4), 2);
  ASSERT_EQ(spec.children.size(), 2u);
  EXPECT_EQ(spec.children[0].modes, (std::vector<mode_t>{0, 1}));
  EXPECT_EQ(spec.children[1].modes, (std::vector<mode_t>{2, 3}));
  EXPECT_NO_THROW(spec.validate(4));
}

TEST(TreeSpec, ThreeLevelSingletonGroupCollapses) {
  const auto spec = TreeSpec::three_level(natural(3), 1);
  ASSERT_EQ(spec.children.size(), 2u);
  EXPECT_TRUE(spec.children[0].is_leaf());
  EXPECT_FALSE(spec.children[1].is_leaf());
  EXPECT_NO_THROW(spec.validate(3));
}

TEST(TreeSpec, BdtIsBalancedBinary) {
  const auto spec = TreeSpec::bdt(natural(8));
  EXPECT_NO_THROW(spec.validate(8));
  // Every internal node has exactly two children.
  std::function<void(const TreeSpec&)> walk = [&](const TreeSpec& n) {
    if (n.is_leaf()) return;
    EXPECT_EQ(n.children.size(), 2u);
    for (const auto& c : n.children) walk(c);
  };
  walk(spec);
  EXPECT_EQ(spec.to_string(), "(((0,1),(2,3)),((4,5),(6,7)))");
}

TEST(TreeSpec, ValidateRejectsBadPartitions) {
  TreeSpec bad;
  bad.modes = {0, 1, 2};
  TreeSpec c1;
  c1.modes = {0, 1};
  c1.children = {TreeSpec{{0}, {}}, TreeSpec{{1}, {}}};
  TreeSpec c2;
  c2.modes = {1};  // overlaps c1 — not a partition
  bad.children = {c1, c2};
  EXPECT_THROW(bad.validate(3), error);
}

TEST(TreeSpec, ValidateRejectsWrongRootCover) {
  const auto spec = TreeSpec::bdt(natural(3));
  EXPECT_THROW(spec.validate(4), error);
}

TEST(DimensionTree, NodeMetadata) {
  const auto t = generate_uniform(shape_t{10, 12, 14, 16}, 500, 3);
  const DimensionTree tree(t, TreeSpec::bdt(natural(4)));
  // Nodes: root, {0,1}, {2,3}, and 4 leaves.
  EXPECT_EQ(tree.size(), 7);
  const auto& root = tree.node(tree.root());
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.mode_set, 0b1111u);
  EXPECT_EQ(root.children.size(), 2u);

  for (mode_t m = 0; m < 4; ++m) {
    const auto& leaf = tree.node(tree.leaf_for_mode(m));
    EXPECT_TRUE(leaf.is_leaf());
    EXPECT_EQ(leaf.mode_set, mode_set_t{1} << m);
  }
}

TEST(DimensionTree, DeltaIsParentMinusChild) {
  const auto t = generate_uniform(shape_t{10, 12, 14, 16}, 500, 3);
  const DimensionTree tree(t, TreeSpec::bdt(natural(4)));
  const auto& left = tree.node(tree.node(tree.root()).children[0]);
  EXPECT_EQ(left.mode_set, 0b0011u);
  EXPECT_EQ(left.delta, (std::vector<mode_t>{2, 3}));
}

TEST(DimensionTree, SymbolicTupleCountsMatchProjections) {
  const auto t = generate_clustered(shape_t{300, 300, 300, 300}, 3000,
                                    {.clusters = 8, .spread = 3.0}, 5);
  const DimensionTree tree(t, TreeSpec::bdt(natural(4)));
  for (int i = 0; i < tree.size(); ++i) {
    const auto& n = tree.node(i);
    if (n.is_root()) continue;
    EXPECT_EQ(n.tuples, distinct_projection_count(t, n.mode_set))
        << "node " << i;
  }
}

TEST(DimensionTree, ReductionSetsPartitionParent) {
  const auto t = generate_uniform(shape_t{20, 20, 20, 20}, 800, 7);
  for (const TreeSpec& spec :
       {TreeSpec::bdt(natural(4)), TreeSpec::flat(natural(4))}) {
    const DimensionTree tree(t, spec);
    for (int i = 0; i < tree.size(); ++i) {
      const auto& n = tree.node(i);
      if (n.is_root()) continue;
      SCOPED_TRACE(spec.to_string() + " node " + std::to_string(i));
      const nnz_t parent_tuples = tree.node_tuples(n.parent);
      EXPECT_EQ(n.red_ptr.front(), 0u);
      EXPECT_EQ(n.red_ptr.back(), parent_tuples);
      if (tree.node(n.parent).is_root()) {
        // The streamed operands are the tensor's values and contracted
        // coordinates taken in the stable-sorted reduction order.
        const auto order = stable_reduction_order(t, n.modes);
        EXPECT_TRUE(n.red_ids.empty());
        ASSERT_EQ(n.red_vals.size(), parent_tuples);
        ASSERT_EQ(n.red_idx.size(), n.delta.size());
        for (nnz_t jp = 0; jp < parent_tuples; ++jp)
          ASSERT_EQ(n.red_vals[jp], t.values()[order[jp]]) << "entry " << jp;
        for (std::size_t d = 0; d < n.delta.size(); ++d) {
          const auto coords = t.mode_indices(n.delta[d]);
          ASSERT_EQ(n.red_idx[d].size(), parent_tuples);
          for (nnz_t jp = 0; jp < parent_tuples; ++jp)
            ASSERT_EQ(n.red_idx[d][jp], coords[order[jp]])
                << "mode " << n.delta[d] << " entry " << jp;
        }
        continue;
      }
      // Below the root's children, red_ids is a permutation of the parent's
      // tuple ids.
      EXPECT_TRUE(n.red_vals.empty());
      EXPECT_TRUE(n.red_idx.empty());
      EXPECT_EQ(n.red_ids.size(), parent_tuples);
      std::vector<bool> seen(parent_tuples, false);
      for (nnz_t id : n.red_ids) {
        ASSERT_LT(id, parent_tuples);
        EXPECT_FALSE(seen[id]);
        seen[id] = true;
      }
    }
  }
}

TEST(DimensionTree, IndexArraysSortedAndInRange) {
  const auto t = generate_zipf(shape_t{40, 50, 60}, 1500, 1.3, 9);
  const DimensionTree tree(t, TreeSpec::bdt(natural(3)));
  for (int i = 0; i < tree.size(); ++i) {
    const auto& n = tree.node(i);
    if (n.is_root()) continue;
    for (std::size_t mp = 0; mp < n.modes.size(); ++mp) {
      const auto span = tree.node_mode_index(i, n.modes[mp]);
      for (index_t v : span) EXPECT_LT(v, t.dim(n.modes[mp]));
    }
    // Tuples are lexicographically sorted (strictly increasing).
    for (nnz_t u = 1; u < n.tuples; ++u) {
      bool greater = false, equal = true;
      for (const auto& arr : n.idx) {
        if (!equal) break;
        if (arr[u] != arr[u - 1]) {
          greater = arr[u] > arr[u - 1];
          equal = false;
        }
      }
      EXPECT_TRUE(!equal && greater) << "node " << i << " tuple " << u;
    }
  }
}

TEST(DimensionTree, RequiresOrderTwoPlus) {
  CooTensor t(shape_t{5});
  t.push_back(std::array<index_t, 1>{2}, 1.0);
  TreeSpec leaf;
  leaf.modes = {0};
  EXPECT_THROW(DimensionTree(t, leaf), error);
}

// The streamed TTMV against the pull loop it replaced (ttmv_oracle.hpp),
// node by node and bit for bit: flat, three-level, binary and greedy trees,
// owner-computes and privatized, 1 and 4 threads. The factors are ALS
// iterates of a clustered tensor whose entries fall to about 1e-300, so
// products underflow and both sides must flush them alike.
TEST(DTreeNumeric, StreamedTtmvMatchesPullLoopBitwise) {
  const auto t = generate_clustered(shape_t{400, 320, 240, 160, 80}, 3000,
                                    {.clusters = 8, .spread = 2.0}, 91);
  CpAlsOptions opt;
  opt.rank = 8;
  opt.max_iterations = 10;
  opt.tolerance = 0;
  opt.engine = "dtree-bdt";
  const std::vector<Matrix> iterates = [&] {
    const ThreadScope one(1);
    return cp_als(t, opt).model.factors;
  }();
  real_t smallest = 1;
  for (const Matrix& f : iterates)
    for (std::size_t e = 0; e < f.size(); ++e)
      if (f.data()[e] != 0)
        smallest = std::min(smallest, std::abs(f.data()[e]));
  ASSERT_LT(smallest, 1e-290) << "the factors no longer underflow";

  ProjectionCounter counter(t);
  const auto order = natural(5);
  // Three-level at 2 and at 4 together reach every fused path: root
  // children contract 1 to 4 modes and inner nodes 1 to 3.
  const std::vector<TreeSpec> specs{
      TreeSpec::flat(order), TreeSpec::three_level(order, 2),
      TreeSpec::three_level(order, 4), TreeSpec::bdt(order),
      greedy_tree(t, counter)};
  for (const TreeSpec& spec : specs) {
    for (const ScheduleMode mode :
         {ScheduleMode::kOwner, ScheduleMode::kPrivatized}) {
      for (const int threads : {1, 4}) {
        const ThreadScope scope(threads);
        DimensionTree tree(t, spec);
        Workspace ws;
        TtmvSched ts;
        ts.threads = threads;
        ts.mode = mode;
        for (mode_t m = 0; m < t.order(); ++m)
          compute_node_values(tree, tree.leaf_for_mode(m), iterates,
                              opt.rank, ws, &ts);
        for (const int id : tree.bfs_order()) {
          const auto& n = tree.node(id);
          if (n.is_root()) continue;
          SCOPED_TRACE(spec.to_string() + " node " + std::to_string(id) +
                       (mode == ScheduleMode::kOwner ? " owner" : " privatized") +
                       " threads=" + std::to_string(threads));
          ASSERT_TRUE(n.valid);
          const Matrix want =
              pull_ttmv(tree, id, iterates, opt.rank, threads, mode);
          ASSERT_EQ(n.values.rows(), want.rows());
          ASSERT_EQ(n.values.cols(), want.cols());
          EXPECT_EQ(std::memcmp(n.values.data(), want.data(),
                                want.size() * sizeof(real_t)),
                    0);
        }
      }
    }
  }
}

TEST(DTreeEngine, MatchesReferenceAllShapes) {
  const auto t = generate_zipf(shape_t{15, 25, 35, 45, 55}, 2500, 1.0, 21);
  const auto factors = random_factors(t, 7, 77);
  for (auto make : {&make_dtree_flat, &make_dtree_three_level, &make_dtree_bdt}) {
    auto engine = make(t, {});
    for (mode_t m = 0; m < t.order(); ++m) {
      Matrix got, want;
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9)
          << engine->name() << " mode " << m;
    }
  }
}

TEST(DTreeEngine, MemoizationBoundOnLiveValueMatrices) {
  // After each sub-iteration of a sweep, at most ceil(log2 N) value matrices
  // may be alive for a BDT (the dimension-tree memory theorem).
  const auto t = generate_uniform(shape_t{12, 12, 12, 12, 12, 12, 12, 12},
                                  3000, 31);
  auto engine = make_dtree_bdt(t);
  const auto factors = random_factors(t, 4, 8);
  Matrix out;
  const int bound = static_cast<int>(std::ceil(std::log2(8)));
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (mode_t m = 0; m < t.order(); ++m) {
      engine->compute(m, factors, out);
      engine->factor_updated(m);
      int live = 0;
      for (int i = 0; i < engine->tree().size(); ++i)
        live += engine->tree().node(i).valid;
      EXPECT_LE(live, bound) << "after mode " << m;
    }
  }
}

TEST(DTreeEngine, FactorUpdatedInvalidatesCorrectly) {
  // Simulated ALS: mutate factors between computes; memoized results must
  // still match a from-scratch reference at every step.
  const auto t = generate_uniform(shape_t{18, 20, 22, 24}, 900, 41);
  auto engine = make_dtree_bdt(t);
  auto factors = random_factors(t, 5, 15);
  Rng rng(1234);
  Matrix got, want;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (mode_t m = 0; m < t.order(); ++m) {
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      ASSERT_LT(Matrix::max_abs_diff(got, want), 1e-9)
          << "sweep " << sweep << " mode " << m;
      // "Update" factor m as ALS would.
      factors[m] = Matrix::random_uniform(t.dim(m), 5, rng);
      engine->factor_updated(m);
    }
  }
}

TEST(DTreeEngine, InvalidatedNodeReusesItsStorage) {
  // Invalidation empties a node's value matrix but keeps its storage, so
  // the next evaluation of the node writes into the same buffer.
  const auto t = generate_uniform(shape_t{18, 20, 22, 24}, 900, 43);
  auto engine = make_dtree_bdt(t);
  const auto factors = random_factors(t, 5, 16);
  Matrix out;
  engine->compute(0, factors, out);
  const DimensionTree& tree = engine->tree();
  std::vector<const real_t*> before(tree.size(), nullptr);
  for (int i = 0; i < tree.size(); ++i)
    if (!tree.node(i).is_root() && tree.node(i).valid)
      before[i] = tree.node(i).values.data();
  const std::size_t bytes_before = tree.value_bytes();
  engine->factor_updated(3);
  int invalidated = 0;
  for (int i = 0; i < tree.size(); ++i) {
    if (before[i] == nullptr || tree.node(i).valid) continue;
    ++invalidated;
    EXPECT_EQ(tree.node(i).values.size(), 0u) << "node " << i;
  }
  ASSERT_GT(invalidated, 0);
  EXPECT_LT(tree.value_bytes(), bytes_before);
  engine->compute(0, factors, out);
  for (int i = 0; i < tree.size(); ++i) {
    if (before[i] == nullptr) continue;
    ASSERT_TRUE(tree.node(i).valid) << "node " << i;
    EXPECT_EQ(tree.node(i).values.data(), before[i]) << "node " << i;
  }
}

TEST(DTreeEngine, StaleResultsWithoutInvalidationDiffer) {
  // Deliberately omit factor_updated: the engine is expected to serve the
  // memoized (now stale) intermediates. This documents the contract.
  const auto t = generate_uniform(shape_t{10, 10, 10, 10}, 400, 47);
  auto engine = make_dtree_bdt(t);
  auto factors = random_factors(t, 3, 5);
  Matrix first, second;
  engine->compute(0, factors, first);
  Rng rng(5);
  factors[3] = Matrix::random_uniform(t.dim(3), 3, rng);
  engine->compute(0, factors, second);  // no factor_updated(3)!
  EXPECT_LT(Matrix::max_abs_diff(first, second), 1e-12)
      << "engine should have reused the memoized result";
  engine->factor_updated(3);
  engine->compute(0, factors, second);
  EXPECT_GT(Matrix::max_abs_diff(first, second), 1e-6)
      << "after invalidation the fresh factors must be used";
}

TEST(DTreeEngine, RankChangeResetsState) {
  const auto t = generate_uniform(shape_t{10, 12, 14}, 300, 53);
  auto engine = make_dtree_bdt(t);
  Matrix got, want;
  const auto f5 = random_factors(t, 5, 1);
  engine->compute(0, f5, got);
  EXPECT_EQ(got.cols(), 5u);
  const auto f9 = random_factors(t, 9, 2);
  engine->compute(1, f9, got);
  mttkrp_reference(t, f9, 1, want);
  EXPECT_EQ(got.cols(), 9u);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9);
}

TEST(DTreeEngine, MemoryReporting) {
  const auto t = generate_uniform(shape_t{30, 30, 30, 30}, 2000, 59);
  auto engine = make_dtree_bdt(t);
  const std::size_t symbolic_only = engine->memory_bytes();
  EXPECT_GT(symbolic_only, 0u);
  const auto factors = random_factors(t, 8, 3);
  Matrix out;
  engine->compute(0, factors, out);
  EXPECT_GT(engine->memory_bytes(), symbolic_only);
  EXPECT_GE(engine->peak_memory_bytes(), engine->memory_bytes());
  engine->invalidate_all();
  EXPECT_EQ(engine->memory_bytes(), symbolic_only);
}

TEST(DTreeEngine, EmptySlicesGiveZeroRows) {
  // Mode-0 index 1 is never used; its MTTKRP row must be zero.
  CooTensor t(shape_t{3, 2, 2});
  t.push_back(std::array<index_t, 3>{0, 0, 0}, 1.0);
  t.push_back(std::array<index_t, 3>{2, 1, 1}, 2.0);
  auto engine = make_dtree_bdt(t);
  const auto factors = random_factors(t, 4, 9);
  Matrix out;
  engine->compute(0, factors, out);
  for (index_t k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(out(1, k), 0.0);
}

// A tensor whose mode 0 has empty slices at its first index, in the middle
// and at its last index (0, 3 and 6 of 7), for the tests below that check
// compute() writes every output row and every memo-node row.
CooTensor gapped_tensor() {
  const auto dense = generate_uniform(shape_t{4, 5, 6, 4}, 300, 61);
  constexpr std::array<index_t, 4> kUsed{1, 2, 4, 5};
  CooTensor t(shape_t{7, 5, 6, 4});
  std::array<index_t, 4> c{};
  for (nnz_t i = 0; i < dense.nnz(); ++i) {
    dense.coords(i, c);
    c[0] = kUsed[c[0]];
    t.push_back(c, dense.value(i));
  }
  return t;
}

TEST(DTreeEngine, OutputOfOtherShapeIsWhollyRewritten) {
  // `out` arrives NaN-filled and larger than the result, so its storage is
  // reused: every row compute() leaves unwritten would still read NaN.
  const auto t = gapped_tensor();
  const index_t r = 12;
  const auto factors = random_factors(t, r, 17);
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  for (auto make : {&make_dtree_flat, &make_dtree_three_level, &make_dtree_bdt}) {
    auto engine = make(t, {});
    for (mode_t m = 0; m < t.order(); ++m) {
      Matrix got(t.dim(m) + 5, r + 3, nan), want;
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9)
          << engine->name() << " mode " << m;
    }
    Matrix got(20, 20, nan);
    engine->compute(0, factors, got);
    for (const index_t empty : {0u, 3u, 6u})
      for (index_t k = 0; k < r; ++k) {
        EXPECT_EQ(got(empty, k), 0.0) << engine->name() << " row " << empty;
        EXPECT_FALSE(std::signbit(got(empty, k)))
            << engine->name() << " row " << empty;
      }
  }
}

TEST(DTreeEngine, PoisonedMemoStorageIsWhollyRewritten) {
  // Every factor NaN puts NaN in every memo node's storage. invalidate_all
  // keeps that storage, so a later evaluation that skips any row's zeroing
  // reads NaN back. It must match a fresh engine bit for bit, under both
  // schedules and at one and four threads.
  const auto t = gapped_tensor();
  const index_t r = 12;
  const auto finite = random_factors(t, r, 19);
  std::vector<Matrix> poisoned;
  for (const Matrix& f : finite)
    poisoned.emplace_back(f.rows(), f.cols(),
                          std::numeric_limits<real_t>::quiet_NaN());
  const int threads_before = num_threads();
  for (const ScheduleMode sched :
       {ScheduleMode::kOwner, ScheduleMode::kPrivatized}) {
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      KernelContext ctx;
      ctx.sched = sched;
      for (auto make :
           {&make_dtree_flat, &make_dtree_three_level, &make_dtree_bdt}) {
        auto used = make(t, ctx);
        auto fresh = make(t, ctx);
        Matrix out;
        for (mode_t m = 0; m < t.order(); ++m)
          used->compute(m, poisoned, out);
        used->invalidate_all();
        for (mode_t m = 0; m < t.order(); ++m) {
          Matrix got, want;
          used->compute(m, finite, got);
          fresh->compute(m, finite, want);
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(real_t)),
                    0)
              << used->name() << " mode " << m << " sched "
              << static_cast<int>(sched) << " threads " << threads;
        }
      }
    }
  }
  set_num_threads(threads_before);
}

// --- Property test: arbitrary random tree shapes are exact ---------------
//
// Generates random valid dimension trees (random recursive partitions with
// 2..4 children per node, shuffled mode orders) and checks the engine
// against the brute-force reference. This covers shapes none of the
// canonical constructors produce (unbalanced, mixed-arity).
namespace {

TreeSpec random_spec(std::vector<mode_t> modes, Rng& rng) {
  TreeSpec node;
  node.modes = modes;
  if (modes.size() == 1) return node;
  // Shuffle, then split into k groups.
  for (std::size_t i = modes.size(); i-- > 1;)
    std::swap(modes[i], modes[rng.next_below(i + 1)]);
  const std::size_t k =
      std::min<std::size_t>(modes.size(), 2 + rng.next_below(3));
  std::vector<std::vector<mode_t>> groups(k);
  for (std::size_t i = 0; i < modes.size(); ++i)
    groups[i % k].push_back(modes[i]);
  for (auto& g : groups) node.children.push_back(random_spec(std::move(g), rng));
  return node;
}

class RandomTreeShapes : public ::testing::TestWithParam<int> {};

TEST_P(RandomTreeShapes, EngineMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto order = static_cast<mode_t>(3 + rng.next_below(4));  // 3..6
  shape_t shape;
  for (mode_t m = 0; m < order; ++m)
    shape.push_back(static_cast<index_t>(8 + rng.next_below(30)));
  const auto t = generate_zipf(shape, 500, 1.0, 9000u + GetParam());

  std::vector<mode_t> modes(order);
  std::iota(modes.begin(), modes.end(), mode_t{0});
  const TreeSpec spec = random_spec(modes, rng);
  ASSERT_NO_THROW(spec.validate(order)) << spec.to_string();

  DTreeMttkrpEngine engine(t, spec, "random");
  auto factors = random_factors(t, 4, 77u + GetParam());
  Matrix got, want;
  Rng frng(31u + GetParam());
  // Two ALS-like sweeps with factor updates in between.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (mode_t m = 0; m < order; ++m) {
      engine.compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      ASSERT_LT(Matrix::max_abs_diff(got, want), 1e-9)
          << spec.to_string() << " sweep " << sweep << " mode " << m;
      factors[m] = Matrix::random_uniform(t.dim(m), 4, frng);
      engine.factor_updated(m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeShapes, ::testing::Range(0, 12));

}  // namespace

}  // namespace
}  // namespace mdcp
