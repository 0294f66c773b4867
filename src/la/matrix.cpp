#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mdcp {

Matrix::Matrix(index_t rows, index_t cols, real_t fill_value)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * cols, fill_value) {}

void Matrix::fill(real_t v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::resize(index_t rows, index_t cols, real_t fill_value) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<std::size_t>(rows) * cols, fill_value);
}

void Matrix::resize_for_overwrite(index_t rows, index_t cols) {
  rows_ = rows;
  cols_ = cols;
  // Emptied first, so a growth past the capacity copies no old entries.
  data_.clear();
  data_.resize(static_cast<std::size_t>(rows) * cols);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (index_t i = 0; i < rows_; ++i)
    for (index_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

real_t Matrix::frobenius_norm() const {
  real_t s = 0;
  for (real_t v : data_) s += v * v;
  return std::sqrt(s);
}

real_t Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  MDCP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  real_t m = 0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  return m;
}

Matrix Matrix::random_uniform(index_t rows, index_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.next_real();
  return m;
}

Matrix Matrix::random_normal(index_t rows, index_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.next_normal();
  return m;
}

}  // namespace mdcp
