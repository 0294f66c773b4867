#include "la/blas.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// Adds rows x0..x3, in that order, to the full R×R Gram partial g, four rows
// per load/store of g. Each g(j,k) is one chain that adds the rows in order,
// exactly as a row-at-a-time loop would. Both triangles are formed: g(k,j)
// sees the same products (x[k]·x[j] = x[j]·x[k]) in the same order as
// g(j,k), so the square is symmetric bit for bit. Rows with a zero entry
// are not skipped: a product of 0 added to a partial that starts at +0, and
// so is never −0, changes nothing for finite input.
MDCP_ALWAYS_INLINE void gram_add4(real_t* g, const real_t* x0,
                                  const real_t* x1, const real_t* x2,
                                  const real_t* x3, index_t r) {
  for (index_t j = 0; j < r; ++j) {
    const real_t a0 = x0[j], a1 = x1[j], a2 = x2[j], a3 = x3[j];
    real_t* gj = g + static_cast<std::size_t>(j) * r;
#pragma omp simd
    for (index_t k = 0; k < r; ++k) {
      real_t v = gj[k];
      v += a0 * x0[k];
      v += a1 * x1[k];
      v += a2 * x2[k];
      v += a3 * x3[k];
      gj[k] = v;
    }
  }
}

// column_norms walks the rows in blocks of this many; every column tile of
// a block then reads rows still in L1.
constexpr index_t kNormBlockRows = 64;

// sums[k] += a(i, j0 + k)² for the listed rows at positions [p0, p1), in
// row order, as a one-column loop adds them. The W running sums sit in a
// local array that no row aliases, so they stay in registers across the
// rows and the compiler vectorizes across the columns.
template <index_t W>
MDCP_ALWAYS_INLINE void add_squares(const Matrix& a, RowSet rows, index_t p0,
                                    index_t p1, index_t j0, real_t* sums) {
  real_t acc[W];
  for (index_t k = 0; k < W; ++k) acc[k] = sums[k];
  for (index_t p = p0; p < p1; ++p) {
    const real_t* x = a.row(rows[p]).data() + j0;
#pragma omp simd
    for (index_t k = 0; k < W; ++k) acc[k] += x[k] * x[k];
  }
  for (index_t k = 0; k < W; ++k) sums[k] = acc[k];
}

MDCP_ALWAYS_INLINE void gram_add1(real_t* g, const real_t* x0, index_t r) {
  for (index_t j = 0; j < r; ++j) {
    const real_t a0 = x0[j];
    real_t* gj = g + static_cast<std::size_t>(j) * r;
#pragma omp simd
    for (index_t k = 0; k < r; ++k) gj[k] += a0 * x0[k];
  }
}

MDCP_ALWAYS_INLINE void divide_row(real_t* row, const real_t* d, index_t r) {
#pragma omp simd
  for (index_t j = 0; j < r; ++j) row[j] /= d[j];
}

// The rows block_gram hands to a block: a's rows as they are (gram), or
// divided in place by the column divisors d first (normalize_gram).
struct PlainRows {
  const real_t* base = nullptr;
  index_t cols = 0;

  MDCP_ALWAYS_INLINE const real_t* operator()(index_t i) const {
    return base + static_cast<std::size_t>(i) * cols;
  }
};

struct DividedRows {
  real_t* base = nullptr;
  index_t cols = 0;
  const real_t* d = nullptr;

  MDCP_ALWAYS_INLINE const real_t* operator()(index_t i) const {
    real_t* row = base + static_cast<std::size_t>(i) * cols;
    divide_row(row, d, cols);
    return row;
  }
};

// Accumulates positions [first, last) of the row set into the zeroed Gram
// partial g, four rows at a time and then one by one; each row is fetched
// (and divided) once, in row order. The per-block body of block_gram,
// compiled once per ISA variant below.
template <class Rows>
MDCP_ALWAYS_INLINE void gram_block(const Rows& row_at, RowSet rows,
                                   index_t first, index_t last, real_t* g) {
  const index_t r = row_at.cols;
  index_t p = first;
  for (; p + 4 <= last; p += 4) {
    const real_t* x0 = row_at(rows[p]);
    const real_t* x1 = row_at(rows[p + 1]);
    const real_t* x2 = row_at(rows[p + 2]);
    const real_t* x3 = row_at(rows[p + 3]);
    gram_add4(g, x0, x1, x2, x3, r);
  }
  for (; p < last; ++p) gram_add1(g, row_at(rows[p]), r);
}

template <class Rows>
void gram_block_baseline(const Rows& row_at, RowSet rows, index_t first,
                         index_t last, real_t* g) {
  gram_block(row_at, rows, first, last, g);
}

template <class Rows>
MDCP_TARGET_AVX2 void gram_block_avx2(const Rows& row_at, RowSet rows,
                                      index_t first, index_t last,
                                      real_t* g) {
  gram_block(row_at, rows, first, last, g);
}

// The Gram block loop behind gram and normalize_gram. Fixed kGramBlock-row
// blocks (independent of the thread count) accumulate in parallel, each
// walking only its listed rows, and are reduced in block order: bitwise
// deterministic for any number of threads, atomics-free, one scan of the
// tall matrix.
template <class Rows>
void block_gram(index_t n, const Rows& row_at, RowSet rows, isa::Isa variant,
                Matrix& out) {
  const index_t r = row_at.cols;
  out.resize(r, r, 0);
  const auto block_fn = isa::pick(variant, &gram_block_baseline<Rows>,
                                  &gram_block_avx2<Rows>);
  const index_t num_blocks = (n + kGramBlock - 1) / kGramBlock;
  const std::size_t rr = static_cast<std::size_t>(r) * r;
  aligned_real_vector partial(num_blocks * rr, 0);
#pragma omp parallel
  {
    const FlushSubnormals fp;
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks); ++b) {
      const index_t begin = static_cast<index_t>(b) * kGramBlock;
      const auto [first, last] =
          rows.positions(begin, std::min<index_t>(begin + kGramBlock, n));
      block_fn(row_at, rows, first, last,
               partial.data() + static_cast<std::size_t>(b) * rr);
    }
  }
  real_t* o = out.data();
  for (index_t b = 0; b < num_blocks; ++b) {
    const real_t* g = partial.data() + static_cast<std::size_t>(b) * rr;
    for (std::size_t e = 0; e < rr; ++e) o[e] += g[e];
  }
}

// Per-column divisors of a normalization: the norm, or 1 (an exact no-op
// division) for a zero column, which is left as it is.
std::vector<real_t> divisors(const std::vector<real_t>& norms) {
  std::vector<real_t> d(norms);
  for (auto& x : d)
    if (!(x > 0)) x = 1;
  return d;
}

}  // namespace

void gram(const Matrix& a, Matrix& out) {
  gram(a, RowSet::all(a.rows()), out);
}

void gram(const Matrix& a, RowSet rows, Matrix& out) {
  detail::gram(a, rows, out, isa::dispatched());
}

void detail::gram(const Matrix& a, RowSet rows, Matrix& out,
                  isa::Isa variant) {
  const FlushSubnormals fp;
  MDCP_CHECK_MSG(rows.within(a.rows()), "row set reaches past the matrix");
  block_gram(a.rows(), PlainRows{.base = a.data(), .cols = a.cols()}, rows,
             variant, out);
}

Matrix gram(const Matrix& a) {
  Matrix out;
  gram(a, out);
  return out;
}

void multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  const FlushSubnormals fp;
  MDCP_CHECK(a.cols() == b.rows());
  c.resize(a.rows(), b.cols(), 0);
  const index_t bi = b.rows();
  const index_t bj = b.cols();
  parallel_for(a.rows(), [&](nnz_t i) {
    const auto arow = a.row(static_cast<index_t>(i));
    auto crow = c.row(static_cast<index_t>(i));
    for (index_t k = 0; k < bi; ++k) {
      const real_t aik = arow[k];
      if (aik == 0) continue;
      const auto brow = b.row(k);
      for (index_t j = 0; j < bj; ++j) crow[j] += aik * brow[j];
    }
  });
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  Matrix c;
  multiply_into(a, b, c);
  return c;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  const FlushSubnormals fp;
  MDCP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  real_t* pa = a.data();
  const real_t* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] *= pb[i];
}

Matrix hadamard_all(const std::vector<const Matrix*>& ms) {
  MDCP_CHECK_MSG(!ms.empty(), "hadamard_all needs at least one matrix");
  Matrix out = *ms.front();
  for (std::size_t i = 1; i < ms.size(); ++i) hadamard_inplace(out, *ms[i]);
  return out;
}

std::vector<real_t> column_normalize(Matrix& a) {
  const FlushSubnormals fp;
  std::vector<real_t> norms = column_norms(a, RowSet::all(a.rows()));
  const std::vector<real_t> d = divisors(norms);
  for (index_t i = 0; i < a.rows(); ++i)
    divide_row(a.row(i).data(), d.data(), a.cols());
  return norms;
}

std::vector<real_t> column_norms(const Matrix& a, RowSet rows) {
  const FlushSubnormals fp;
  MDCP_CHECK_MSG(rows.within(a.rows()), "row set reaches past the matrix");
  const index_t r = a.cols();
  std::vector<real_t> norms(r, 0);
  real_t* const sums = norms.data();
  // Each block of rows passes once per column tile of 16, 8, 4, 2 and 1.
  for (index_t p0 = 0; p0 < rows.count; p0 += kNormBlockRows) {
    const index_t p1 = std::min(rows.count, p0 + kNormBlockRows);
    index_t j = 0;
    for (; r - j >= 16; j += 16) add_squares<16>(a, rows, p0, p1, j, sums + j);
    for (; r - j >= 8; j += 8) add_squares<8>(a, rows, p0, p1, j, sums + j);
    for (; r - j >= 4; j += 4) add_squares<4>(a, rows, p0, p1, j, sums + j);
    for (; r - j >= 2; j += 2) add_squares<2>(a, rows, p0, p1, j, sums + j);
    for (; r - j >= 1; j += 1) add_squares<1>(a, rows, p0, p1, j, sums + j);
  }
  for (auto& x : norms) x = std::sqrt(x);
  return norms;
}

void normalize_gram(Matrix& a, RowSet rows, const std::vector<real_t>& norms,
                    Matrix& out) {
  detail::normalize_gram(a, rows, norms, out, isa::dispatched());
}

void detail::normalize_gram(Matrix& a, RowSet rows,
                            const std::vector<real_t>& norms, Matrix& out,
                            isa::Isa variant) {
  const FlushSubnormals fp;
  MDCP_CHECK_MSG(rows.within(a.rows()), "row set reaches past the matrix");
  MDCP_CHECK(norms.size() == a.cols());
  const std::vector<real_t> d = divisors(norms);
  block_gram(a.rows(),
             DividedRows{.base = a.data(), .cols = a.cols(), .d = d.data()},
             rows, variant, out);
}

real_t dot(const Matrix& a, const Matrix& b) {
  const FlushSubnormals fp;
  MDCP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  real_t s = 0;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) s += pa[i] * pb[i];
  return s;
}

}  // namespace mdcp
