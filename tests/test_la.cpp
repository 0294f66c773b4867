#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {
namespace {

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  // memcmp must not see the null data() of an empty matrix.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

// The per-row substitution loop the row-tiled cholesky_solve_rows replaced,
// kept verbatim as the bitwise reference: each row is one serial chain.
void reference_solve_rows(const Matrix& l, Matrix& rhs_rows) {
  const index_t n = l.rows();
  for (index_t ri = 0; ri < rhs_rows.rows(); ++ri) {
    auto x = rhs_rows.row(ri);
    for (index_t i = 0; i < n; ++i) {
      real_t s = x[i];
      for (index_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
      x[i] = s / l(i, i);
    }
    for (index_t ii = n; ii-- > 0;) {
      real_t s = x[ii];
      for (index_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
      x[ii] = s / l(ii, ii);
    }
  }
}

// The Gram loop the four-row kernel replaced, kept verbatim as the bitwise
// oracle: fixed row blocks, the upper triangle one row at a time with zero
// entries skipped, reduced in block order and mirrored.
Matrix reference_gram(const Matrix& a) {
  const index_t n = a.rows();
  const index_t r = a.cols();
  Matrix out(r, r, 0);
  const index_t num_blocks = (n + kGramBlock - 1) / kGramBlock;
  const std::size_t rr = static_cast<std::size_t>(r) * r;
  std::vector<real_t> partial(num_blocks * rr, 0);
  for (index_t b = 0; b < num_blocks; ++b) {
    real_t* local = partial.data() + static_cast<std::size_t>(b) * rr;
    const index_t begin = b * kGramBlock;
    const index_t end = std::min<index_t>(begin + kGramBlock, n);
    for (index_t i = begin; i < end; ++i) {
      const auto row = a.row(i);
      for (index_t j = 0; j < r; ++j) {
        const real_t aj = row[j];
        if (aj == 0) continue;
        real_t* lrow = local + static_cast<std::size_t>(j) * r;
        for (index_t k = j; k < r; ++k) lrow[k] += aj * row[k];
      }
    }
  }
  for (index_t b = 0; b < num_blocks; ++b) {
    const real_t* p = partial.data() + static_cast<std::size_t>(b) * rr;
    for (index_t j = 0; j < r; ++j)
      for (index_t k = j; k < r; ++k) out(j, k) += p[j * r + k];
  }
  for (index_t j = 0; j < r; ++j)
    for (index_t k = j + 1; k < r; ++k) out(k, j) = out(j, k);
  return out;
}

// SPD R×R matrix BᵀB + I.
Matrix random_spd(index_t r, Rng& rng) {
  Matrix h = gram(Matrix::random_normal(r + 5, r, rng));
  for (index_t i = 0; i < r; ++i) h(i, i) += 1;
  return h;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 2, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 1.5);
  m(1, 0) = -4;
  EXPECT_DOUBLE_EQ(m(1, 0), -4.0);
  EXPECT_DOUBLE_EQ(m.row(1)[0], -4.0);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2, 3);
  m.zero();
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 0.0);
  m.fill(2);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 4.0);
}

TEST(Matrix, Transposed) {
  Matrix m(2, 3);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j) m(i, j) = static_cast<real_t>(i * 3 + j);
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1), b(2, 2, 1);
  b(1, 1) = 4;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 3.0);
}

TEST(Matrix, RandomDeterministic) {
  Rng r1(5), r2(5);
  EXPECT_EQ(Matrix::random_uniform(4, 3, r1), Matrix::random_uniform(4, 3, r2));
}

TEST(Blas, GramMatchesBruteForce) {
  Rng rng(3);
  const Matrix a = Matrix::random_normal(37, 5, rng);
  const Matrix g = gram(a);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      real_t expect = 0;
      for (index_t k = 0; k < 37; ++k) expect += a(k, i) * a(k, j);
      EXPECT_NEAR(g(i, j), expect, 1e-10);
    }
  }
}

TEST(Blas, GramIsSymmetric) {
  Rng rng(4);
  const Matrix g = gram(Matrix::random_normal(20, 6, rng));
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
}

TEST(Blas, MultiplyMatchesBruteForce) {
  Rng rng(6);
  const Matrix a = Matrix::random_normal(7, 4, rng);
  const Matrix b = Matrix::random_normal(4, 5, rng);
  const Matrix c = multiply(a, b);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      real_t expect = 0;
      for (index_t k = 0; k < 4; ++k) expect += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), expect, 1e-12);
    }
  }
}

TEST(Blas, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  Matrix c;
  EXPECT_THROW(multiply_into(a, b, c), error);
}

TEST(Blas, HadamardInPlace) {
  Matrix a(2, 2, 3), b(2, 2, 2);
  hadamard_inplace(a, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
}

TEST(Blas, HadamardAll) {
  const Matrix a(2, 2, 2), b(2, 2, 3), c(2, 2, 5);
  const Matrix h = hadamard_all({&a, &b, &c});
  EXPECT_DOUBLE_EQ(h(1, 1), 30.0);
}

TEST(Blas, ColumnNormalize) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 0) = 4;
  m(0, 1) = 0;
  m(1, 1) = 0;
  const auto norms = column_normalize(m);
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);  // zero column untouched
  EXPECT_DOUBLE_EQ(m(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.8);
}

TEST(Blas, Dot) {
  Matrix a(2, 2, 2), b(2, 2, 3);
  EXPECT_DOUBLE_EQ(dot(a, b), 24.0);
}

TEST(Cholesky, FactorAndSolveSpd) {
  // A = Bᵀ B + I is SPD.
  Rng rng(8);
  const Matrix b = Matrix::random_normal(10, 4, rng);
  Matrix a = gram(b);
  for (index_t i = 0; i < 4; ++i) a(i, i) += 1;

  const Matrix a_copy = a;
  ASSERT_TRUE(cholesky_factor(a));

  // Solve X·A = M for a random M and verify residual.
  const Matrix m = Matrix::random_normal(6, 4, rng);
  Matrix x = m;
  cholesky_solve_rows(a, x);
  const Matrix recon = multiply(x, a_copy);
  EXPECT_LT(Matrix::max_abs_diff(recon, m), 1e-9);
}

TEST(Cholesky, FactorFailsOnIndefinite) {
  Matrix a(2, 2, 0);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(Eigen, DiagonalizesKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;  // eigenvalues 1 and 3
  Matrix v;
  std::vector<real_t> w;
  jacobi_eigen_symmetric(a, v, w);
  std::sort(w.begin(), w.end());
  EXPECT_NEAR(w[0], 1.0, 1e-10);
  EXPECT_NEAR(w[1], 3.0, 1e-10);
}

TEST(Eigen, ReconstructsFromEigenpairs) {
  Rng rng(10);
  const Matrix b = Matrix::random_normal(8, 5, rng);
  const Matrix a = gram(b);
  Matrix v;
  std::vector<real_t> w;
  jacobi_eigen_symmetric(a, v, w);
  // A == V diag(w) Vᵀ.
  Matrix recon(5, 5, 0);
  for (index_t k = 0; k < 5; ++k)
    for (index_t i = 0; i < 5; ++i)
      for (index_t j = 0; j < 5; ++j)
        recon(i, j) += v(i, k) * w[k] * v(j, k);
  EXPECT_LT(Matrix::max_abs_diff(recon, a), 1e-8);
}

TEST(Eigen, PseudoInverseOfSingularMatrix) {
  // Rank-1 symmetric matrix: A = u uᵀ with u = (1, 2)ᵀ.
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  const Matrix ap = pseudo_inverse(a);
  // A · A⁺ · A == A characterizes the Moore–Penrose inverse here.
  const Matrix prod = multiply(multiply(a, ap), a);
  EXPECT_LT(Matrix::max_abs_diff(prod, a), 1e-9);
}

TEST(Cholesky, NormalEquationsSolveSpdPath) {
  Rng rng(12);
  const Matrix b = Matrix::random_normal(20, 4, rng);
  Matrix h = gram(b);
  for (index_t i = 0; i < 4; ++i) h(i, i) += 0.5;
  const Matrix m = Matrix::random_normal(9, 4, rng);
  const Matrix x = solve_normal_equations(h, m);
  EXPECT_LT(Matrix::max_abs_diff(multiply(x, h), m), 1e-9);
}

TEST(Cholesky, NormalEquationsSingularFallback) {
  // H singular (rank 1): solution must satisfy X·H·H⁺ = M·H⁺·H ... we verify
  // the weaker Moore–Penrose property X = M·H⁺ minimizes ‖X·H − M‖ by
  // checking the normal-equation residual is orthogonal to range(H).
  Matrix h(2, 2);
  h(0, 0) = 1;
  h(0, 1) = 1;
  h(1, 0) = 1;
  h(1, 1) = 1;
  Matrix m(3, 2, 1.0);
  const Matrix x = solve_normal_equations(h, m);
  // For this H and M, M·H⁺ = [[0.5, 0.5], ...] and X·H = M exactly.
  EXPECT_LT(Matrix::max_abs_diff(multiply(x, h), m), 1e-9);
}

TEST(Cholesky, TiledSolveMatchesPerRowLoopBitwise) {
  // Ranks straddle the tile-friendly widths; row counts cover no tile, a
  // partial tile, exactly one tile, one row past it, and many tiles.
  const index_t ranks[] = {1, 2, 7, 8, 15, 16, 17, 32, 33, 64, 65};
  const index_t row_counts[] = {0,
                                1,
                                kCholeskyLanes - 1,
                                kCholeskyLanes,
                                kCholeskyLanes + 1,
                                1000};
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const index_t r : ranks) {
      Rng rng(1000 + r);
      Matrix l = random_spd(r, rng);
      ASSERT_TRUE(cholesky_factor(l));
      for (const index_t rows : row_counts) {
        const Matrix m = Matrix::random_normal(rows, r, rng);
        Matrix expect = m;
        reference_solve_rows(l, expect);
        Matrix got = m;
        EXPECT_TRUE(cholesky_solve_rows(l, got));
        EXPECT_TRUE(bitwise_equal(got, expect))
            << "R=" << r << " rows=" << rows << " threads=" << threads;
      }
    }
  }
  set_num_threads(saved_threads);
}

TEST(Cholesky, TiledSolveReportsNonFiniteRows) {
  Rng rng(21);
  Matrix l = random_spd(6, rng);
  ASSERT_TRUE(cholesky_factor(l));
  Matrix m = Matrix::random_normal(3 * kCholeskyLanes + 5, 6, rng);
  m(2 * kCholeskyLanes + 3, 4) = std::numeric_limits<real_t>::quiet_NaN();
  Matrix expect = m;
  reference_solve_rows(l, expect);
  Matrix got = m;
  EXPECT_FALSE(cholesky_solve_rows(l, got));
  // Only the poisoned row goes non-finite; every other row is untouched by
  // its tile neighbour.
  for (index_t i = 0; i < m.rows(); ++i) {
    if (i == 2 * kCholeskyLanes + 3) continue;
    EXPECT_EQ(std::memcmp(got.row(i).data(), expect.row(i).data(),
                          6 * sizeof(real_t)),
              0)
        << "row " << i;
  }
}

// Runs both solve_normal_equations forms on (h, m) and requires the same X
// bit for bit and the same SolveInfo, whatever `x` held before.
void expect_in_place_matches_returning(const Matrix& h, const Matrix& m) {
  SolveInfo want_info;
  const Matrix want = solve_normal_equations(h, m, &want_info);
  Rng rng(5);
  std::vector<Matrix> targets;
  targets.emplace_back();                                         // fresh
  targets.push_back(Matrix::random_normal(m.rows(), m.cols(), rng));  // sized
  targets.emplace_back(m.rows() + 3, m.cols() + 1, 7.0);         // wrong
  for (std::size_t t = 0; t < targets.size(); ++t) {
    Matrix& x = targets[t];
    SolveInfo info;
    solve_normal_equations(h, m, x, &info);
    EXPECT_TRUE(bitwise_equal(x, want)) << "target " << t;
    EXPECT_EQ(info.cholesky, want_info.cholesky);
    EXPECT_EQ(info.ridge_retries, want_info.ridge_retries);
    EXPECT_EQ(info.ridge_lambda, want_info.ridge_lambda);
    EXPECT_EQ(info.used_pseudo_inverse, want_info.used_pseudo_inverse);
    EXPECT_EQ(info.finite, want_info.finite);
  }
}

TEST(Cholesky, InPlaceSolveMatchesReturningSpd) {
  Rng rng(31);
  const Matrix h = random_spd(16, rng);
  const Matrix m = Matrix::random_normal(1000, 16, rng);
  SolveInfo info;
  (void)solve_normal_equations(h, m, &info);
  EXPECT_EQ(info.cholesky, CholeskyStatus::kOk);
  EXPECT_TRUE(info.finite);
  expect_in_place_matches_returning(h, m);
}

TEST(Cholesky, InPlaceSolveMatchesReturningRidge) {
  // All-ones H is rank one: the first pivot past the top-left hits exactly
  // zero, and the smallest ridge restores definiteness.
  const Matrix h(5, 5, 1.0);
  Rng rng(32);
  const Matrix m = Matrix::random_normal(3 * kCholeskyLanes + 1, 5, rng);
  SolveInfo info;
  (void)solve_normal_equations(h, m, &info);
  EXPECT_EQ(info.cholesky, CholeskyStatus::kNotSpd);
  EXPECT_GE(info.ridge_retries, 1);
  EXPECT_FALSE(info.used_pseudo_inverse);
  expect_in_place_matches_returning(h, m);
}

TEST(Cholesky, InPlaceSolveMatchesReturningPseudoInverse) {
  // Indefinite with a negative trace: no ridge is tried.
  Matrix h(3, 3, 0.0);
  h(0, 0) = 1;
  h(1, 1) = -3;
  h(2, 2) = 0.5;
  Rng rng(33);
  const Matrix m = Matrix::random_normal(kCholeskyLanes + 2, 3, rng);
  SolveInfo info;
  (void)solve_normal_equations(h, m, &info);
  EXPECT_TRUE(info.used_pseudo_inverse);
  EXPECT_EQ(info.ridge_retries, 0);
  EXPECT_TRUE(info.finite);
  expect_in_place_matches_returning(h, m);
}

TEST(Cholesky, InPlaceSolveReportsNonFiniteOutput) {
  Rng rng(34);
  const Matrix h = random_spd(4, rng);
  Matrix m = Matrix::random_normal(40, 4, rng);
  m(17, 2) = std::numeric_limits<real_t>::infinity();
  Matrix x;
  SolveInfo info;
  solve_normal_equations(h, m, x, &info);
  EXPECT_FALSE(info.finite);
  expect_in_place_matches_returning(h, m);
}

TEST(Cholesky, InPlaceSolveRejectsNonFiniteGramAndAliasing) {
  Rng rng(35);
  Matrix h = random_spd(4, rng);
  Matrix m = Matrix::random_normal(10, 4, rng);
  EXPECT_THROW(solve_normal_equations(h, m, m), error);
  h(1, 1) = std::numeric_limits<real_t>::quiet_NaN();
  Matrix x;
  EXPECT_THROW(solve_normal_equations(h, m, x), numeric_error);
}

// --- Row sets: the kernels CP-ALS runs over the occupied rows only. -------

const index_t kRowSetRanks[] = {1, 3, 10, 16, 17, 32, 64};

// Row lists over n rows that straddle the 16-lane tiles and the Gram
// blocks: every row, no row, sparse and dense strided lists, runs across a
// tile and a block edge, and (for n past three blocks) a list whose first
// and last blocks are empty.
std::vector<std::vector<index_t>> row_lists(index_t n, Rng& rng) {
  std::vector<std::vector<index_t>> lists(5);
  for (index_t i = 0; i < n; ++i) {
    lists[0].push_back(i);
    if (i % 3 == 1) lists[2].push_back(i);
    if (rng.next_real() < 0.3) lists[3].push_back(i);
  }
  for (index_t i = kCholeskyLanes - 2; i < kCholeskyLanes + 3 && i < n; ++i)
    lists[4].push_back(i);
  for (index_t i = kGramBlock - 9; i < kGramBlock + 9 && i < n; ++i)
    lists[4].push_back(i);
  if (n > 3 * kGramBlock) {
    std::vector<index_t> inner;
    for (index_t i = kGramBlock; i < (n / kGramBlock) * kGramBlock; ++i)
      if (rng.next_real() < 0.4) inner.push_back(i);
    lists.push_back(std::move(inner));
  }
  return lists;
}

// m with every row outside `rows` set to +0.
Matrix zero_unlisted(Matrix m, const std::vector<index_t>& rows) {
  std::vector<char> keep(m.rows(), 0);
  for (const index_t i : rows) keep[i] = 1;
  for (index_t i = 0; i < m.rows(); ++i)
    if (!keep[i]) std::fill(m.row(i).begin(), m.row(i).end(), real_t{0});
  return m;
}

TEST(Blas, GramMatchesTriangularLoopBitwise) {
  const index_t row_counts[] = {0, 1, 3, 4, 5, 7, kGramBlock - 1, kGramBlock,
                                kGramBlock + 1, 3 * kGramBlock + 5};
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const index_t r : kRowSetRanks) {
      Rng rng(2000 + r);
      for (const index_t rows : row_counts) {
        Matrix a = Matrix::random_normal(rows, r, rng);
        // Zero entries exercise the reference's skip.
        for (std::size_t e = 0; e < a.size(); e += 7) a.data()[e] = 0;
        EXPECT_TRUE(bitwise_equal(gram(a), reference_gram(a)))
            << "R=" << r << " rows=" << rows << " threads=" << threads;
      }
    }
  }
  set_num_threads(saved_threads);
}

TEST(Blas, RowSetKernelsMatchAllRowsBitwise) {
  const index_t row_counts[] = {1,
                                kCholeskyLanes - 1,
                                kCholeskyLanes + 1,
                                kGramBlock + 3,
                                4 * kGramBlock + 100};
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const index_t r : kRowSetRanks) {
      Rng rng(3000 + r);
      Matrix l = random_spd(r, rng);
      const Matrix h = l;
      ASSERT_TRUE(cholesky_factor(l));
      for (const index_t n : row_counts) {
        const auto lists = row_lists(n, rng);
        for (std::size_t li = 0; li < lists.size(); ++li) {
          const auto& list = lists[li];
          const RowSet rows = RowSet::list(list);
          const std::string where = "R=" + std::to_string(r) +
                                    " n=" + std::to_string(n) +
                                    " list=" + std::to_string(li) +
                                    " threads=" + std::to_string(threads);
          const Matrix m =
              zero_unlisted(Matrix::random_normal(n, r, rng), list);

          // Solve: the all-rows result, and the row-set solve into a +0
          // target and into one whose unlisted rows must survive.
          const Matrix want = solve_normal_equations(h, m);
          Matrix got(n, r, 0);
          SolveInfo info;
          solve_normal_equations(h, m, rows, got, &info);
          EXPECT_TRUE(info.finite) << where;
          EXPECT_TRUE(bitwise_equal(got, want)) << where;
          Matrix kept(n, r, -7.0);
          solve_normal_equations(h, m, rows, kept);
          EXPECT_TRUE(bitwise_equal(zero_unlisted(kept, list), want)) << where;
          std::size_t untouched = 0;
          for (const real_t v : std::span<const real_t>(kept.data(), kept.size()))
            untouched += v == -7.0;
          EXPECT_EQ(untouched, (n - list.size()) * std::size_t{r}) << where;

          // Gram over the listed rows.
          Matrix g;
          gram(want, rows, g);
          EXPECT_TRUE(bitwise_equal(g, gram(want))) << where;

          // Fused normalize+Gram, with a zero column on odd lists.
          Matrix a = want;
          if (li % 2 == 1)
            for (index_t i = 0; i < n; ++i) a(i, r - 1) = 0;
          Matrix a_full = a;
          const auto norms_full = column_normalize(a_full);
          Matrix g_full;
          gram(a_full, g_full);
          const auto norms = column_norms(a, rows);
          ASSERT_EQ(norms.size(), norms_full.size());
          EXPECT_EQ(std::memcmp(norms.data(), norms_full.data(),
                                norms.size() * sizeof(real_t)),
                    0)
              << where;
          Matrix g_fused;
          normalize_gram(a, rows, norms, g_fused);
          EXPECT_TRUE(bitwise_equal(a, a_full)) << where;
          EXPECT_TRUE(bitwise_equal(g_fused, g_full)) << where;
        }
      }
    }
  }
  set_num_threads(saved_threads);
}

// column_norms before its columns were tiled in registers: one running sum
// per column in the result vector, rows added in order. Kept as the bitwise
// reference.
std::vector<real_t> reference_column_norms(const Matrix& a, RowSet rows) {
  const index_t r = a.cols();
  std::vector<real_t> norms(r, 0);
  for (index_t p = 0; p < rows.count; ++p) {
    const auto row = a.row(rows[p]);
    for (index_t j = 0; j < r; ++j) norms[j] += row[j] * row[j];
  }
  for (auto& x : norms) x = std::sqrt(x);
  return norms;
}

TEST(Blas, ColumnNormsMatchRowLoopBitwise) {
  const index_t row_counts[] = {1, 63, 64, 65, kGramBlock + 3,
                                4 * kGramBlock + 100};
  for (const index_t r : {1u, 2u, 3u, 7u, 10u, 16u, 17u, 31u, 32u, 64u}) {
    Rng rng(4000 + r);
    for (const index_t n : row_counts) {
      const auto lists = row_lists(n, rng);
      for (std::size_t li = 0; li < lists.size(); ++li) {
        const RowSet rows = RowSet::list(lists[li]);
        const Matrix a = Matrix::random_normal(n, r, rng);
        const auto got = column_norms(a, rows);
        const auto want = reference_column_norms(a, rows);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(real_t)),
                  0)
            << "R=" << r << " n=" << n << " list=" << li;
      }
    }
  }
}

TEST(Cholesky, RowSetSolveMatchesAllRowsOnFallbackPaths) {
  // The ridge (rank-one H) and pseudo-inverse (indefinite H) paths write
  // the listed rows exactly as the all-rows solve does, and nothing else.
  Matrix indefinite(3, 3, 0.0);
  indefinite(0, 0) = 1;
  indefinite(1, 1) = -3;
  indefinite(2, 2) = 0.5;
  const Matrix hs[] = {Matrix(3, 3, 1.0), indefinite};
  Rng rng(36);
  const index_t n = 3 * kCholeskyLanes + 5;
  std::vector<index_t> list;
  for (index_t i = 2; i < n; i += 3) list.push_back(i);
  const Matrix m = Matrix::random_normal(n, 3, rng);
  for (const Matrix& h : hs) {
    SolveInfo want_info;
    const Matrix want = solve_normal_equations(h, m, &want_info);
    Matrix got(n, 3, -7.0);
    SolveInfo info;
    solve_normal_equations(h, m, RowSet::list(list), got, &info);
    EXPECT_EQ(info.ridge_retries, want_info.ridge_retries);
    EXPECT_EQ(info.used_pseudo_inverse, want_info.used_pseudo_inverse);
    EXPECT_TRUE(info.finite);
    std::size_t p = 0;
    for (index_t i = 0; i < n; ++i) {
      const bool listed = p < list.size() && list[p] == i;
      if (listed) ++p;
      for (index_t c = 0; c < 3; ++c) {
        if (listed)
          EXPECT_EQ(std::memcmp(got.row(i).data() + c, want.row(i).data() + c,
                                sizeof(real_t)),
                    0)
              << "row " << i;
        else
          EXPECT_EQ(got(i, c), -7.0) << "row " << i;
      }
    }
  }
}

TEST(Blas, RowSetRejectsRowsPastTheMatrix) {
  Matrix a(10, 2, 1.0), g;
  const std::vector<index_t> list = {3, 10};
  EXPECT_THROW(gram(a, RowSet::list(list), g), error);
  EXPECT_THROW(column_norms(a, RowSet::list(list)), error);
}

using mdcp::testing::mxcsr_controls;

std::vector<real_t> values(const Matrix& m) {
  return {m.data(), m.data() + m.size()};
}

// Runs `kernel`, which returns the values it wrote, once with the caller's
// MXCSR as it stands and once with FTZ|DAZ already set by the caller. Both
// runs must give the same bits, none of them subnormal, and each call must
// leave the caller's MXCSR as it found it.
template <class Kernel>
void expect_flushed_whatever_the_caller(const std::string& where,
                                        Kernel kernel) {
  const unsigned plain_csr = mxcsr_controls();
  const std::vector<real_t> plain = kernel();
  EXPECT_EQ(mxcsr_controls(), plain_csr) << where;
  std::vector<real_t> flushed;
  {
    const FlushSubnormals caller;
    const unsigned flushed_csr = mxcsr_controls();
    flushed = kernel();
    EXPECT_EQ(mxcsr_controls(), flushed_csr) << where;
  }
  ASSERT_EQ(plain.size(), flushed.size()) << where;
  EXPECT_EQ(std::memcmp(plain.data(), flushed.data(),
                        plain.size() * sizeof(real_t)),
            0)
      << where;
  EXPECT_EQ(std::count_if(plain.begin(), plain.end(),
                          [](real_t v) {
                            return std::fpclassify(v) == FP_SUBNORMAL;
                          }),
            0)
      << where;
}

// Entries scaled so that each kernel's products or quotients fall below
// DBL_MIN: without flush-to-zero every output below would hold subnormals.
TEST(FpEnv, LaKernelsFlushSubnormalsWhateverTheCaller) {
#if !defined(__SSE2__)
  GTEST_SKIP() << "no MXCSR on this target";
#endif
  const index_t n = 2 * kGramBlock + 50;
  const index_t r = 6;
  const auto scaled = [](Matrix m, real_t scale) {
    for (std::size_t e = 0; e < m.size(); ++e)
      m.data()[e] = (1 + m.data()[e]) * scale;
    return m;
  };
  std::vector<index_t> list;
  for (index_t i = 0; i < n; i += 3) list.push_back(i);
  const RowSet rows = RowSet::list(list);
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    mdcp::testing::clear_flush_bits_everywhere();
    const std::string at = " threads=" + std::to_string(threads);
    Rng rng(91);
    // Products of two entries are about 1e-320.
    const Matrix tiny = scaled(Matrix::random_uniform(n, r, rng), 1e-160);
    const Matrix tiny_sq = scaled(Matrix::random_uniform(r, r, rng), 1e-160);
    // Unit-scale columns after a 1e10 first row: the quotients of the other
    // rows are about 1e-310.
    Matrix spiked = scaled(Matrix::random_uniform(n, r, rng), 1e-300);
    for (index_t c = 0; c < r; ++c) spiked(0, c) = 1e10;
    // H about 1e4 × an SPD matrix, right-hand sides about 1e-307: the
    // solutions are about 1e-311.
    Matrix h = random_spd(r, rng);
    for (std::size_t e = 0; e < h.size(); ++e) h.data()[e] *= 1e4;
    const Matrix rhs = scaled(Matrix::random_uniform(n, r, rng), 1e-307);
    // Diagonal 1e20, off-diagonal entries about 1e-300: the factor's
    // off-diagonal entries are about 1e-310.
    Matrix spd = scaled(Matrix::random_uniform(r, r, rng), 1e-300);
    for (index_t i = 0; i < r; ++i)
      for (index_t j = 0; j < i; ++j) spd(j, i) = spd(i, j);
    for (index_t i = 0; i < r; ++i) spd(i, i) = 1e20;

    expect_flushed_whatever_the_caller("gram" + at, [&] {
      Matrix g;
      gram(tiny, g);
      return values(g);
    });
    expect_flushed_whatever_the_caller("gram row set" + at, [&] {
      Matrix g;
      gram(tiny, rows, g);
      return values(g);
    });
    expect_flushed_whatever_the_caller("multiply_into" + at, [&] {
      Matrix c;
      multiply_into(tiny, tiny_sq, c);
      return values(c);
    });
    expect_flushed_whatever_the_caller("hadamard_inplace" + at, [&] {
      Matrix a = tiny_sq;
      hadamard_inplace(a, tiny_sq);
      return values(a);
    });
    expect_flushed_whatever_the_caller("dot" + at, [&] {
      return std::vector<real_t>{dot(tiny, tiny)};
    });
    expect_flushed_whatever_the_caller("column_norms" + at, [&] {
      return column_norms(tiny, rows);
    });
    expect_flushed_whatever_the_caller("column_normalize" + at, [&] {
      Matrix a = spiked;
      std::vector<real_t> out = column_normalize(a);
      out.insert(out.end(), a.data(), a.data() + a.size());
      return out;
    });
    expect_flushed_whatever_the_caller("normalize_gram" + at, [&] {
      Matrix a = spiked;
      Matrix g;
      normalize_gram(a, RowSet::all(n), column_norms(a, RowSet::all(n)), g);
      std::vector<real_t> out = values(g);
      out.insert(out.end(), a.data(), a.data() + a.size());
      return out;
    });
    expect_flushed_whatever_the_caller("cholesky_factor_status" + at, [&] {
      Matrix l = spd;
      EXPECT_EQ(cholesky_factor_status(l), CholeskyStatus::kOk);
      return values(l);
    });
    expect_flushed_whatever_the_caller("cholesky_solve_rows" + at, [&] {
      Matrix l = h;
      EXPECT_TRUE(cholesky_factor(l));
      Matrix x = rhs;
      EXPECT_TRUE(cholesky_solve_rows(l, x));
      return values(x);
    });
    expect_flushed_whatever_the_caller("solve_normal_equations" + at, [&] {
      Matrix x(n, r, 0);
      solve_normal_equations(h, rhs, rows, x);
      return values(x);
    });
  }
  set_num_threads(saved_threads);
}

}  // namespace
}  // namespace mdcp
