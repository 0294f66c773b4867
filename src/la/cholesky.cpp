#include "la/cholesky.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"

namespace mdcp {

CholeskyStatus cholesky_factor_status(Matrix& a) {
  const FlushSubnormals fp;
  MDCP_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    real_t d = a(j, j);
    for (index_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (!std::isfinite(d)) return CholeskyStatus::kNanInput;
    if (!(d > 0)) return CholeskyStatus::kNotSpd;
    const real_t lj = std::sqrt(d);
    a(j, j) = lj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t s = a(i, j);
      for (index_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / lj;
    }
  }
  return CholeskyStatus::kOk;
}

bool cholesky_factor(Matrix& a) {
  return cholesky_factor_status(a) == CholeskyStatus::kOk;
}

namespace {

// Solves tiles [tiles.begin, tiles.end) of solve_rows_into in the R×kLanes
// scratch tile t. Returns true when every value written is finite. The
// per-thread body, compiled once per ISA variant below.
MDCP_ALWAYS_INLINE bool solve_tiles(const Matrix& l, const Matrix& b,
                                    RowSet rows, Matrix& x, Range tiles,
                                    real_t* t) {
  constexpr index_t kLanes = kCholeskyLanes;
  const index_t n = l.rows();
  bool finite = true;
  for (nnz_t ti = tiles.begin; ti < tiles.end; ++ti) {
    const index_t p0 = static_cast<index_t>(ti) * kLanes;
    const index_t count = std::min(kLanes, rows.count - p0);
    for (index_t lane = 0; lane < count; ++lane) {
      const auto row = b.row(rows[p0 + lane]);
      for (index_t c = 0; c < n; ++c) t[c * kLanes + lane] = row[c];
    }
    for (index_t lane = count; lane < kLanes; ++lane)
      for (index_t c = 0; c < n; ++c) t[c * kLanes + lane] = 0;

    // Forward substitution: L y = b.
    for (index_t i = 0; i < n; ++i) {
      real_t* xi = t + i * kLanes;
      for (index_t k = 0; k < i; ++k) {
        const real_t lik = l(i, k);
        const real_t* xk = t + k * kLanes;
#pragma omp simd
        for (index_t lane = 0; lane < kLanes; ++lane)
          xi[lane] -= lik * xk[lane];
      }
      const real_t d = l(i, i);
#pragma omp simd
      for (index_t lane = 0; lane < kLanes; ++lane) xi[lane] = xi[lane] / d;
    }
    // Backward substitution: Lᵀ x = y.
    for (index_t ii = n; ii-- > 0;) {
      real_t* xi = t + ii * kLanes;
      for (index_t k = ii + 1; k < n; ++k) {
        const real_t lki = l(k, ii);
        const real_t* xk = t + k * kLanes;
#pragma omp simd
        for (index_t lane = 0; lane < kLanes; ++lane)
          xi[lane] -= lki * xk[lane];
      }
      const real_t d = l(ii, ii);
#pragma omp simd
      for (index_t lane = 0; lane < kLanes; ++lane) xi[lane] = xi[lane] / d;
    }

    for (index_t lane = 0; lane < count; ++lane) {
      auto row = x.row(rows[p0 + lane]);
      for (index_t c = 0; c < n; ++c) {
        const real_t v = t[c * kLanes + lane];
        row[c] = v;
        finite &= std::isfinite(v);
      }
    }
  }
  return finite;
}

using SolveTilesFn = bool (*)(const Matrix&, const Matrix&, RowSet, Matrix&,
                              Range, real_t*);

bool solve_tiles_baseline(const Matrix& l, const Matrix& b, RowSet rows,
                          Matrix& x, Range tiles, real_t* t) {
  return solve_tiles(l, b, rows, x, tiles, t);
}

MDCP_TARGET_AVX2 bool solve_tiles_avx2(const Matrix& l, const Matrix& b,
                                       RowSet rows, Matrix& x, Range tiles,
                                       real_t* t) {
  return solve_tiles(l, b, rows, x, tiles, t);
}

}  // namespace

// Solves L·Lᵀ·x = b for every listed row b of `b` into the same row of `x`
// (same shape; may be `b` itself, since a tile is fully loaded before it is
// written back). A tile gathers kCholeskyLanes consecutive entries of the
// row set. Returns true when every value written is finite.
bool detail::solve_rows_into(const Matrix& l, const Matrix& b, RowSet rows,
                             Matrix& x, isa::Isa variant) {
  constexpr index_t kLanes = kCholeskyLanes;
  const index_t n = l.rows();
  const SolveTilesFn solve_fn =
      isa::pick(variant, &solve_tiles_baseline, &solve_tiles_avx2);
  const nnz_t num_tiles =
      (static_cast<nnz_t>(rows.count) + kLanes - 1) / kLanes;
  std::atomic<bool> every_finite{true};
  parallel_for_chunked(num_tiles, [&](int, Range tiles) {
    // t[c·kLanes + lane] holds column c of row rows[p0 + lane].
    aligned_real_vector tile(static_cast<std::size_t>(n) * kLanes);
    if (!solve_fn(l, b, rows, x, tiles, tile.data()))
      every_finite.store(false);
  });
  return every_finite.load();
}

bool cholesky_solve_rows(const Matrix& l, Matrix& rhs_rows) {
  const FlushSubnormals fp;
  MDCP_CHECK(l.rows() == l.cols());
  MDCP_CHECK(rhs_rows.cols() == l.rows());
  return detail::solve_rows_into(l, rhs_rows, RowSet::all(rhs_rows.rows()),
                                 rhs_rows, isa::dispatched());
}

void solve_normal_equations(const Matrix& h, const Matrix& m, Matrix& x,
                            SolveInfo* info) {
  if (x.rows() != m.rows() || x.cols() != m.cols())
    x.resize(m.rows(), m.cols());
  solve_normal_equations(h, m, RowSet::all(m.rows()), x, info);
}

void solve_normal_equations(const Matrix& h, const Matrix& m, RowSet rows,
                            Matrix& x, SolveInfo* info) {
  const FlushSubnormals fp;
  MDCP_CHECK(h.rows() == h.cols());
  MDCP_CHECK(m.cols() == h.rows());
  MDCP_CHECK(x.rows() == m.rows() && x.cols() == m.cols());
  MDCP_CHECK_MSG(rows.within(m.rows()), "row set reaches past the matrix");
  MDCP_CHECK_MSG(&x != &m, "solve_normal_equations: x must not alias m");
  SolveInfo local;
  SolveInfo& si = info != nullptr ? *info : local;
  si = SolveInfo{};
  const index_t n = h.rows();

  Matrix l = h;
  si.cholesky = cholesky_factor_status(l);
  if (si.cholesky == CholeskyStatus::kOk) {
    si.finite = detail::solve_rows_into(l, m, rows, x, isa::dispatched());
    return;
  }
  if (si.cholesky == CholeskyStatus::kNanInput)
    throw numeric_error(
        "normal-equations Gram matrix contains non-finite values");

  // Rank-deficient H: retry with an escalating ridge. λ is seeded relative
  // to the mean diagonal so the perturbation scales with the problem; each
  // failed retry escalates λ by 100×. A zero/negative trace means the ridge
  // cannot restore positive-definiteness at a meaningful scale — go straight
  // to the pseudo-inverse.
  real_t trace = 0;
  for (index_t i = 0; i < n; ++i) trace += h(i, i);
  if (trace > 0) {
    constexpr int kMaxRidgeRetries = 3;
    real_t lambda = (trace / static_cast<real_t>(n)) * 1e-10;
    for (int retry = 1; retry <= kMaxRidgeRetries; ++retry, lambda *= 100) {
      Matrix lr = h;
      for (index_t i = 0; i < n; ++i) lr(i, i) += lambda;
      si.ridge_retries = retry;
      if (cholesky_factor_status(lr) == CholeskyStatus::kOk) {
        si.ridge_lambda = lambda;
        si.finite =
            detail::solve_rows_into(lr, m, rows, x, isa::dispatched());
        return;
      }
    }
  }

  // Last resort: the Moore–Penrose pseudo-inverse, M·H⁺ copied into the
  // listed rows.
  si.used_pseudo_inverse = true;
  const Matrix full = multiply(m, pseudo_inverse(h));
  for (index_t p = 0; p < rows.count; ++p) {
    const auto src = full.row(rows[p]);
    auto dst = x.row(rows[p]);
    std::copy(src.begin(), src.end(), dst.begin());
    si.finite = si.finite && std::all_of(src.begin(), src.end(), [](real_t v) {
                  return std::isfinite(v);
                });
  }
}

Matrix solve_normal_equations(const Matrix& h, const Matrix& m,
                              SolveInfo* info) {
  Matrix x;
  solve_normal_equations(h, m, x, info);
  return x;
}

}  // namespace mdcp
