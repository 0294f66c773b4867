// The compiled kernel variants (util/isa.hpp) against each other, bit for
// bit: the dimension-tree TTMV, the block Gram with its fused normalize, and
// the row-tiled Cholesky substitution, each called on the baseline and on
// the AVX2 variant through its internal `variant` parameter. The inputs are
// ALS iterates whose entries fall below 1e-290, so products underflow and
// both variants must flush them alike; the kernels set FTZ/DAZ themselves.
// The AVX2 half skips on a CPU without AVX2+FMA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cpals/cpals.hpp"
#include "dtree/dimension_tree.hpp"
#include "dtree/numeric.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "model/sketch.hpp"
#include "model/strategy.hpp"
#include "obs/report.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace mdcp {
namespace {

constexpr isa::Isa kBase = isa::Isa::kBaseline;
constexpr isa::Isa kAvx2 = isa::Isa::kAvx2;

#define MDCP_SKIP_WITHOUT_AVX2()                               \
  do {                                                         \
    if (!isa::supported(kAvx2))                                \
      GTEST_SKIP() << "this CPU cannot run the AVX2 variant";  \
  } while (0)

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

const CooTensor& clustered_tensor() {
  static const CooTensor t =
      generate_clustered(shape_t{400, 320, 240, 160, 80}, 3000,
                         {.clusters = 8, .spread = 2.0}, 91);
  return t;
}

// Rank 13 runs the 8-wide tile and a 5-lane tail; rank 61 every tile
// width (32, 16, 8) and the tail.
constexpr index_t kRanks[] = {13, 61};

// ALS iterates of clustered_tensor() at rank r, computed once per rank.
const std::vector<Matrix>& underflowing_iterates(index_t r) {
  static std::map<index_t, std::vector<Matrix>> cache;
  auto it = cache.find(r);
  if (it == cache.end()) {
    CpAlsOptions opt;
    opt.rank = r;
    opt.max_iterations = 10;
    opt.tolerance = 0;
    opt.engine = "dtree-bdt";
    const ThreadScope one(1);
    it = cache.emplace(r, cp_als(clustered_tensor(), opt).model.factors)
             .first;
  }
  return it->second;
}

real_t smallest_nonzero(const std::vector<Matrix>& ms) {
  real_t smallest = 1;
  for (const Matrix& f : ms)
    for (std::size_t e = 0; e < f.size(); ++e)
      if (f.data()[e] != 0)
        smallest = std::min(smallest, std::abs(f.data()[e]));
  return smallest;
}

// A tall n×r matrix made of the iterates' rows, cycled, so its Gram spans
// several kGramBlock blocks and its entries underflow when multiplied.
Matrix tall_iterate_rows(index_t r, index_t n) {
  const auto& its = underflowing_iterates(r);
  std::vector<const real_t*> rows;
  for (const Matrix& f : its)
    for (index_t i = 0; i < f.rows(); ++i) rows.push_back(f.row(i).data());
  Matrix a(n, r, 0);
  for (index_t i = 0; i < n; ++i)
    std::copy_n(rows[i % rows.size()], r, a.row(i).data());
  return a;
}

// Row lists over n rows: all rows, every third, a random 30%, and runs
// straddling a substitution tile edge and a Gram block edge.
std::vector<std::vector<index_t>> row_lists(index_t n, Rng& rng) {
  std::vector<std::vector<index_t>> lists(4);
  for (index_t i = 0; i < n; ++i) {
    lists[0].push_back(i);
    if (i % 3 == 1) lists[1].push_back(i);
    if (rng.next_real() < 0.3) lists[2].push_back(i);
  }
  for (index_t i = kCholeskyLanes - 2; i < kCholeskyLanes + 3 && i < n; ++i)
    lists[3].push_back(i);
  for (index_t i = kGramBlock - 9; i < kGramBlock + 9 && i < n; ++i)
    lists[3].push_back(i);
  return lists;
}

TEST(IsaDispatch, PicksTheWidestSupportedVariant) {
  EXPECT_TRUE(isa::supported(kBase));
  EXPECT_EQ(isa::dispatched(), isa::supported(kAvx2) ? kAvx2 : kBase);
  EXPECT_STREQ(isa::name(kBase), "baseline");
  EXPECT_STREQ(isa::name(kAvx2), "avx2");
  EXPECT_EQ(obs::BuildInfo::current().kernel_isa,
            isa::name(isa::dispatched()));
  TtmvSched ts;
  EXPECT_EQ(ts.variant, isa::dispatched());
  if (!isa::supported(kAvx2)) {
    // Asking for a variant the CPU cannot run fails before any of it runs.
    Matrix a(4, 3, 1), g;
    EXPECT_THROW(detail::gram(a, RowSet::all(4), g, kAvx2), error);
  }
}

// Every node of flat, three-level, binary and greedy trees, owner-computes
// and privatized, 1 and 4 threads, as StreamedTtmvMatchesPullLoopBitwise
// (test_dtree) runs them against the pull-loop oracle.
TEST(IsaVariants, DtreeTtmvMatchesBaselineBitwise) {
  MDCP_SKIP_WITHOUT_AVX2();
  const CooTensor& t = clustered_tensor();
  ProjectionCounter counter(t);
  std::vector<mode_t> order(t.order());
  for (mode_t m = 0; m < t.order(); ++m) order[m] = m;
  // Three-level at 2 and at 4 together reach every fused path: root
  // children contract 1 to 4 modes and inner nodes 1 to 3.
  const std::vector<TreeSpec> specs{
      TreeSpec::flat(order), TreeSpec::three_level(order, 2),
      TreeSpec::three_level(order, 4), TreeSpec::bdt(order),
      greedy_tree(t, counter)};
  for (const index_t r : kRanks) {
    const auto& iterates = underflowing_iterates(r);
    ASSERT_LT(smallest_nonzero(iterates), 1e-290)
        << "R=" << r << ": the factors no longer underflow";
    for (const TreeSpec& spec : specs) {
      for (const ScheduleMode mode :
           {ScheduleMode::kOwner, ScheduleMode::kPrivatized}) {
        for (const int threads : {1, 4}) {
          const ThreadScope scope(threads);
          DimensionTree trees[2] = {DimensionTree(t, spec),
                                    DimensionTree(t, spec)};
          const isa::Isa variants[2] = {kBase, kAvx2};
          for (int v = 0; v < 2; ++v) {
            Workspace ws;
            TtmvSched ts;
            ts.threads = threads;
            ts.mode = mode;
            ts.variant = variants[v];
            for (mode_t m = 0; m < t.order(); ++m)
              compute_node_values(trees[v], trees[v].leaf_for_mode(m),
                                  iterates, r, ws, &ts);
          }
          for (const int id : trees[0].bfs_order()) {
            const auto& want = trees[0].node(id);
            if (want.is_root()) continue;
            const auto& got = trees[1].node(id);
            SCOPED_TRACE("R=" + std::to_string(r) + " " + spec.to_string() +
                         " node " + std::to_string(id) +
                         (mode == ScheduleMode::kOwner ? " owner"
                                                       : " privatized") +
                         " threads=" + std::to_string(threads));
            ASSERT_TRUE(want.valid && got.valid);
            EXPECT_TRUE(bitwise_equal(got.values, want.values));
          }
        }
      }
    }
  }
}

// gram and normalize_gram over RowSets of a matrix spanning several Gram
// blocks, 1 and 4 threads, a zero column on every other list.
TEST(IsaVariants, GramAndNormalizeGramMatchBaselineBitwise) {
  MDCP_SKIP_WITHOUT_AVX2();
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const index_t r : kRanks) {
      Rng rng(4000 + r);
      const index_t n = 2 * kGramBlock + 37;
      const Matrix tall = tall_iterate_rows(r, n);
      const auto lists = row_lists(n, rng);
      for (std::size_t li = 0; li < lists.size(); ++li) {
        const RowSet rows = RowSet::list(lists[li]);
        SCOPED_TRACE("R=" + std::to_string(r) + " list=" +
                     std::to_string(li) + " threads=" +
                     std::to_string(threads));
        Matrix a = tall;
        if (li % 2 == 1)
          for (index_t i = 0; i < n; ++i) a(i, r - 1) = 0;

        Matrix g_base, g_avx2;
        detail::gram(a, rows, g_base, kBase);
        detail::gram(a, rows, g_avx2, kAvx2);
        EXPECT_TRUE(bitwise_equal(g_avx2, g_base));

        const auto norms = column_norms(a, rows);
        Matrix a_base = a, a_avx2 = a;
        detail::normalize_gram(a_base, rows, norms, g_base, kBase);
        detail::normalize_gram(a_avx2, rows, norms, g_avx2, kAvx2);
        EXPECT_TRUE(bitwise_equal(a_avx2, a_base));
        EXPECT_TRUE(bitwise_equal(g_avx2, g_base));
      }
    }
  }
  set_num_threads(saved_threads);
}

// The substitution over ranks around every tile width and row sets that end
// in a partial (tail) tile, into a separate target and in place.
TEST(IsaVariants, RowTiledSolveMatchesBaselineBitwise) {
  MDCP_SKIP_WITHOUT_AVX2();
  const index_t ranks[] = {1, 7, 8, 13, 16, 17, 32, 33, 61};
  const index_t row_counts[] = {0, 1, kCholeskyLanes - 1, kCholeskyLanes,
                                kCholeskyLanes + 1, 1000};
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const index_t r : ranks) {
      Rng rng(5000 + r);
      // L of the SPD matrix BᵀB + I.
      Matrix l = gram(Matrix::random_normal(r + 5, r, rng));
      for (index_t i = 0; i < r; ++i) l(i, i) += 1;
      ASSERT_TRUE(cholesky_factor(l));
      // Right-hand sides from the underflowing iterates of the nearest
      // tested rank, so the solutions underflow too.
      const index_t src_rank = r <= kRanks[0] ? kRanks[0] : kRanks[1];
      for (const index_t n : row_counts) {
        const Matrix src = tall_iterate_rows(src_rank, std::max<index_t>(n, 1));
        Matrix b(n, r, 0);
        for (index_t i = 0; i < n; ++i)
          std::copy_n(src.row(i).data(), r, b.row(i).data());
        for (const auto& list : row_lists(n, rng)) {
          const RowSet rows = RowSet::list(list);
          SCOPED_TRACE("R=" + std::to_string(r) + " n=" + std::to_string(n) +
                       " listed=" + std::to_string(list.size()) +
                       " threads=" + std::to_string(threads));
          Matrix x_base(n, r, 0), x_avx2(n, r, 0);
          const bool f_base =
              detail::solve_rows_into(l, b, rows, x_base, kBase);
          const bool f_avx2 =
              detail::solve_rows_into(l, b, rows, x_avx2, kAvx2);
          EXPECT_EQ(f_avx2, f_base);
          EXPECT_TRUE(bitwise_equal(x_avx2, x_base));

          Matrix in_place = b;
          detail::solve_rows_into(l, in_place, rows, in_place, kAvx2);
          Matrix in_place_base = b;
          detail::solve_rows_into(l, in_place_base, rows, in_place_base,
                                  kBase);
          EXPECT_TRUE(bitwise_equal(in_place, in_place_base));
        }
      }
    }
  }
  set_num_threads(saved_threads);
}

}  // namespace
}  // namespace mdcp
