// The radix sort helper against std::stable_sort, and the dimension tree's
// symbolic build against a comparator-sort reference, node by node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "dtree/dimension_tree.hpp"
#include "model/sketch.hpp"
#include "model/strategy.hpp"
#include "tensor/generator.hpp"
#include "tensor/radix_sort.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {
namespace {

std::vector<nnz_t> comparator_sort(std::span<const SortKey> keys, nnz_t n) {
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (const SortKey& k : keys)
      if (k.values[a] != k.values[b]) return k.values[a] < k.values[b];
    return false;
  });
  return perm;
}

// Key arrays of n values below `sizes[k]`. Values are drawn from a window of
// `distinct` consecutive values at a random offset, so large sizes still
// produce ties (which stability must order) and the top of the range.
std::vector<std::vector<index_t>> random_keys(const std::vector<index_t>& sizes,
                                              nnz_t n, index_t distinct,
                                              Rng& rng) {
  std::vector<std::vector<index_t>> keys;
  for (index_t size : sizes) {
    const index_t window = std::min(size, distinct);
    const index_t offset =
        size == window ? 0 : rng.next_index(size - window + 1);
    std::vector<index_t> v(n);
    for (auto& x : v) x = offset + rng.next_index(window);
    keys.push_back(std::move(v));
  }
  return keys;
}

std::vector<SortKey> as_sort_keys(const std::vector<std::vector<index_t>>& v,
                                  const std::vector<index_t>& sizes) {
  std::vector<SortKey> keys;
  for (std::size_t k = 0; k < v.size(); ++k) keys.push_back({v[k], sizes[k]});
  return keys;
}

constexpr index_t kMaxSize = std::numeric_limits<index_t>::max();

TEST(RadixSort, EmptyAndSingleton) {
  const std::vector<index_t> a{7};
  const std::vector<SortKey> keys{{a, 8}};
  EXPECT_TRUE(radix_sort_permutation(keys, 0).empty());
  EXPECT_EQ(radix_sort_permutation(keys, 1), std::vector<nnz_t>{0});
  EXPECT_EQ(radix_sort_permutation({}, 3), (std::vector<nnz_t>{0, 1, 2}));
}

TEST(RadixSort, MatchesStableSortAcrossSizes) {
  // Sizes 1, 2^k - 1, 2^k, 2^k + 1 (digit-width edges) and 2^32 - 1.
  std::vector<index_t> sizes{1, kMaxSize};
  for (int k : {1, 2, 8, 11, 12, 16, 21, 22, 23, 31})
    for (std::int64_t d : {-1, 0, 1}) {
      const std::int64_t s = (std::int64_t{1} << k) + d;
      if (s >= 1 && s <= kMaxSize) sizes.push_back(static_cast<index_t>(s));
    }
  Rng rng(42);
  for (nnz_t n : {nnz_t{2}, nnz_t{3}, nnz_t{100}, nnz_t{5000}})
    for (index_t size : sizes)
      for (index_t distinct : {index_t{2}, index_t{64}, kMaxSize}) {
        const std::vector<index_t> sz{size, 3, size};
        const auto values = random_keys(sz, n, distinct, rng);
        const auto keys = as_sort_keys(values, sz);
        ASSERT_EQ(radix_sort_permutation(keys, n), comparator_sort(keys, n))
            << "n=" << n << " size=" << size << " distinct=" << distinct;
      }
}

TEST(RadixSort, KeysWiderThan64Bits) {
  // Three full-width keys (96 bits) plus a small one: no packed key fits.
  Rng rng(7);
  const std::vector<index_t> sz{kMaxSize, kMaxSize, 5, kMaxSize};
  for (index_t distinct : {index_t{3}, index_t{1000}, kMaxSize}) {
    const auto values = random_keys(sz, 4000, distinct, rng);
    const auto keys = as_sort_keys(values, sz);
    EXPECT_EQ(radix_sort_permutation(keys, 4000), comparator_sort(keys, 4000))
        << "distinct=" << distinct;
  }
}

TEST(RadixSort, SortsAPrefixOfLongerKeyArrays) {
  Rng rng(3);
  const std::vector<index_t> sz{50, 9};
  const auto values = random_keys(sz, 300, 50, rng);
  const auto keys = as_sort_keys(values, sz);
  EXPECT_EQ(radix_sort_permutation(keys, 200), comparator_sort(keys, 200));
}

TEST(RadixSort, RejectsOutOfRangeAndShortKeys) {
  const std::vector<index_t> a{0, 5, 2};
  EXPECT_THROW(radix_sort_permutation(std::vector<SortKey>{{a, 5}}, 3), error);
  EXPECT_THROW(radix_sort_permutation(std::vector<SortKey>{{a, 6}}, 4), error);
  EXPECT_THROW(radix_sort_permutation(std::vector<SortKey>{{a, 0}}, 3), error);
  // Multi-digit key: a value whose high bits pass the size still throws.
  const std::vector<index_t> b{0, 1u << 30, 3};
  EXPECT_THROW(
      radix_sort_permutation(std::vector<SortKey>{{b, (1u << 23) + 1}}, 3),
      error);
}

TEST(RadixSort, CooSortedPermutationMatchesComparator) {
  const CooTensor t = generate_zipf({40, 1, 300, 70000}, 20000, 1.2, 5);
  for (const std::vector<mode_t>& order :
       {std::vector<mode_t>{0, 1, 2, 3}, std::vector<mode_t>{3, 0},
        std::vector<mode_t>{2, 1, 3, 0}, std::vector<mode_t>{1}}) {
    std::vector<nnz_t> expect(t.nnz());
    std::iota(expect.begin(), expect.end(), nnz_t{0});
    std::stable_sort(expect.begin(), expect.end(), [&](nnz_t a, nnz_t b) {
      return t.tuple_less(a, b, order);
    });
    EXPECT_EQ(t.sorted_permutation(order), expect);
  }
}

// Each pass splits the ids into one chunk per thread; the permutation must
// be the serial one at any thread count.
constexpr int kThreadCounts[] = {1, 3, 4};

TEST(RadixSort, MatchesStableSortAtEveryThreadCount) {
  Rng rng(9);
  const std::vector<std::vector<index_t>> size_sets{
      {7},                            // one pass, 7 buckets
      {1, 2000, 5},                   // a size-1 key costs nothing
      {(1u << 22) + 3, 300},          // a three-digit key
      {kMaxSize, 8, kMaxSize},        // full-width keys
  };
  for (const nnz_t n : {nnz_t{5}, nnz_t{4097}, nnz_t{60000}})
    for (const auto& sz : size_sets)
      for (const index_t distinct : {index_t{3}, index_t{5000}, kMaxSize}) {
        const auto values = random_keys(sz, n, distinct, rng);
        const auto keys = as_sort_keys(values, sz);
        const auto want = comparator_sort(keys, n);
        for (const int threads : kThreadCounts) {
          const ThreadScope scope(threads);
          ASSERT_EQ(radix_sort_permutation(keys, n), want)
              << "n=" << n << " keys=" << sz.size() << " distinct="
              << distinct << " threads=" << threads;
        }
      }
}

TEST(RadixSort, KeySizeErrorIsTypedAtEveryThreadCount) {
  // Two values past the size, in the last quarter of the ids: every thread
  // count must throw mdcp::error naming the first of them, never terminate.
  std::vector<index_t> one(20000), two(20000);
  for (index_t i = 0; i < one.size(); ++i) {
    one[i] = i % 500;
    two[i] = (i * 7919) % (1u << 20);
  }
  one[17000] = 900;
  one[19000] = 800;
  two[9000] = (1u << 23) + 1;  // caught by the top digit of a 2-pass key
  for (const int threads : kThreadCounts) {
    const ThreadScope scope(threads);
    try {
      (void)radix_sort_permutation(std::vector<SortKey>{{one, 500}}, 20000);
      ADD_FAILURE() << "no error at " << threads << " threads";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "sort key value 900 exceeds the key size 500"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(radix_sort_permutation(
                     std::vector<SortKey>{{two, 1u << 20}, {one, 500}}, 16000),
                 error)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// build_symbolic against a comparator-sort reference.
// ---------------------------------------------------------------------------

struct RefNode {
  std::vector<std::vector<index_t>> idx;
  std::vector<nnz_t> red_ptr, red_ids;
  nnz_t max_red = 0;
};

// The symbolic pass as it was written with std::stable_sort: project each
// parent onto the node's modes, sort, group.
std::vector<RefNode> reference_symbolic(const DimensionTree& tree) {
  std::vector<RefNode> ref(static_cast<std::size_t>(tree.size()));
  const auto node_keys = [&](int id, mode_t m) -> std::span<const index_t> {
    const auto& n = tree.node(id);
    if (n.is_root()) return tree.tensor().mode_indices(m);
    const auto pos = static_cast<std::size_t>(
        std::find(n.modes.begin(), n.modes.end(), m) - n.modes.begin());
    return ref[static_cast<std::size_t>(id)].idx[pos];
  };
  for (int id : tree.bfs_order()) {
    const auto& n = tree.node(id);
    if (n.is_root()) continue;
    const nnz_t pcount =
        tree.node(n.parent).is_root()
            ? tree.tensor().nnz()
            : ref[static_cast<std::size_t>(n.parent)].red_ptr.size() - 1;
    std::vector<std::span<const index_t>> keys;
    for (mode_t m : n.modes) keys.push_back(node_keys(n.parent, m));
    std::vector<nnz_t> perm(pcount);
    std::iota(perm.begin(), perm.end(), nnz_t{0});
    std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
      for (const auto& k : keys)
        if (k[a] != k[b]) return k[a] < k[b];
      return false;
    });
    RefNode& r = ref[static_cast<std::size_t>(id)];
    r.idx.assign(keys.size(), {});
    for (nnz_t p = 0; p < pcount; ++p) {
      bool fresh = p == 0;
      for (const auto& k : keys) fresh = fresh || k[perm[p]] != k[perm[p - 1]];
      if (!fresh) continue;
      r.red_ptr.push_back(p);
      for (std::size_t m = 0; m < keys.size(); ++m)
        r.idx[m].push_back(keys[m][perm[p]]);
    }
    r.red_ptr.push_back(pcount);
    r.red_ids = std::move(perm);
    for (std::size_t t = 0; t + 1 < r.red_ptr.size(); ++t)
      r.max_red = std::max(r.max_red, r.red_ptr[t + 1] - r.red_ptr[t]);
  }
  return ref;
}

void expect_symbolic_matches(const CooTensor& t, const TreeSpec& spec) {
  const DimensionTree tree(t, spec);
  const auto ref = reference_symbolic(tree);
  for (int id = 0; id < tree.size(); ++id) {
    const auto& n = tree.node(id);
    if (n.is_root()) continue;
    const RefNode& r = ref[static_cast<std::size_t>(id)];
    SCOPED_TRACE(spec.to_string() + " node " + std::to_string(id));
    EXPECT_EQ(n.idx, r.idx);
    EXPECT_EQ(n.red_ptr, r.red_ptr);
    if (tree.node(n.parent).is_root()) {
      // A child of the root streams the tensor's values and contracted
      // coordinates in the reference's reduction order instead of ids.
      EXPECT_TRUE(n.red_ids.empty());
      std::vector<real_t> vals;
      for (const nnz_t j : r.red_ids) vals.push_back(t.values()[j]);
      EXPECT_EQ(n.red_vals, vals);
      ASSERT_EQ(n.red_idx.size(), n.delta.size());
      for (std::size_t d = 0; d < n.delta.size(); ++d) {
        std::vector<index_t> coords;
        for (const nnz_t j : r.red_ids)
          coords.push_back(t.mode_indices(n.delta[d])[j]);
        EXPECT_EQ(n.red_idx[d], coords) << "mode " << n.delta[d];
      }
    } else {
      EXPECT_EQ(n.red_ids, r.red_ids);
    }
    EXPECT_EQ(n.max_red, r.max_red);
    EXPECT_EQ(n.tuples, r.red_ptr.size() - 1);
  }
}

TEST(RadixSort, SymbolicBuildMatchesComparatorReference) {
  ClusteredOptions clustered;
  clustered.clusters = 16;
  const std::vector<CooTensor> tensors{
      generate_uniform({30, 40, 50}, 3000, 1),
      generate_zipf({200, 300, 400, 100}, 8000, 1.1, 2),
      generate_zipf({5000, 1, 3000, 70000}, 6000, 1.3, 3),  // size-1 mode
      generate_clustered({60, 70, 80, 90, 100}, 8000, clustered, 4),
      generate_uniform({3, 4, 5, 6, 7, 8}, 4000, 5),
      generate_zipf({9, 10, 11, 12, 13, 14, 15}, 6000, 1.0, 6),  // order 7
      generate_clustered({2, 3000, 2, 5000, 3, 40, 1}, 5000, clustered,
                         7),  // order 7 with a size-1 mode
      generate_uniform({100000, 2}, 3000, 8),
  };
  for (const CooTensor& t : tensors) {
    SCOPED_TRACE(t.summary());
    std::vector<mode_t> order(t.order());
    std::iota(order.begin(), order.end(), mode_t{0});
    expect_symbolic_matches(t, TreeSpec::flat(order));
    expect_symbolic_matches(t, TreeSpec::bdt(order));
    for (mode_t split = 1; split < t.order(); ++split)
      expect_symbolic_matches(t, TreeSpec::three_level(order, split));
    ProjectionCounter counter(t);
    expect_symbolic_matches(t, greedy_tree(t, counter));
  }
}

TEST(RadixSort, SymbolicBuildMatchesAtEveryThreadCount) {
  ClusteredOptions clustered;
  clustered.clusters = 24;
  const std::vector<CooTensor> tensors{
      generate_zipf({8, 3000, 20000, 6000}, 50000, 1.1, 12),
      generate_clustered({60, 70, 80, 90, 100}, 40000, clustered, 13),
      generate_uniform({3, 4, 5, 6, 7, 8}, 30000, 14),
  };
  for (const CooTensor& t : tensors) {
    std::vector<mode_t> order(t.order());
    std::iota(order.begin(), order.end(), mode_t{0});
    for (const int threads : kThreadCounts) {
      const ThreadScope scope(threads);
      SCOPED_TRACE(t.summary() + ", " + std::to_string(threads) + " threads");
      expect_symbolic_matches(t, TreeSpec::flat(order));
      expect_symbolic_matches(t, TreeSpec::bdt(order));
      expect_symbolic_matches(t, TreeSpec::three_level(order, 2));
    }
  }
}

}  // namespace
}  // namespace mdcp
