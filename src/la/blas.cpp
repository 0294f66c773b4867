#include "la/blas.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mdcp {

void gram(const Matrix& a, Matrix& out) {
  const index_t n = a.rows();
  const index_t r = a.cols();
  out.resize(r, r, 0);

  // Fixed-size row blocks (independent of the thread count) accumulated in
  // parallel, then reduced in block order: bitwise-deterministic for any
  // number of threads, atomics-free, single scan of the tall matrix. The
  // per-block R×R partials share one contiguous buffer (one allocation per
  // call, not one per block).
  constexpr index_t kBlock = 2048;
  const index_t num_blocks = (n + kBlock - 1) / kBlock;
  const std::size_t rr = static_cast<std::size_t>(r) * r;
  aligned_real_vector partial(num_blocks * rr, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(num_blocks); ++b) {
    real_t* local = partial.data() + static_cast<std::size_t>(b) * rr;
    const index_t begin = static_cast<index_t>(b) * kBlock;
    const index_t end = std::min<index_t>(begin + kBlock, n);
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
  // Mirror the upper triangle.
  for (index_t j = 0; j < r; ++j)
    for (index_t k = j + 1; k < r; ++k) out(k, j) = out(j, k);
}

Matrix gram(const Matrix& a) {
  Matrix out;
  gram(a, out);
  return out;
}

void multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
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
  const index_t r = a.cols();
  std::vector<real_t> norms(r, 0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (index_t j = 0; j < r; ++j) norms[j] += row[j] * row[j];
  }
  for (auto& x : norms) x = std::sqrt(x);
  for (index_t i = 0; i < a.rows(); ++i) {
    auto row = a.row(i);
    for (index_t j = 0; j < r; ++j)
      if (norms[j] > 0) row[j] /= norms[j];
  }
  return norms;
}

real_t dot(const Matrix& a, const Matrix& b) {
  MDCP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  real_t s = 0;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) s += pa[i] * pb[i];
  return s;
}

}  // namespace mdcp
