// Dense row-major matrix used for CP factor matrices and R×R Gram matrices.
//
// mdcp deliberately carries its own small dense kernels instead of linking a
// BLAS: every dense operation in CP-ALS is either tall-skinny (I × R with
// R ≤ 64) or tiny (R × R), where simple cache-friendly loops are competitive
// and keep the library dependency-free.
//
// Storage is 64-byte aligned (util/aligned.hpp): data() is always a valid
// aligned-load target for the SIMD microkernel layer, and row(i) is aligned
// whenever cols() is a multiple of the vector width (mk::kVectorWidth).
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mdcp {

/// The rows of a matrix a row-set kernel visits, in ascending order: every
/// row 0..count-1 (`ids == nullptr`) or the `count` ids listed. A kernel
/// leaves the other rows alone. Where those rows are +0, a sum over the
/// listed rows equals the sum over every row bit for bit: a +0 row adds
/// exactly nothing, and a sum that starts at +0 never becomes −0.
struct RowSet {
  const index_t* ids = nullptr;
  index_t count = 0;

  static RowSet all(index_t rows) noexcept { return {nullptr, rows}; }
  /// `ids` must be ascending and outlive the RowSet.
  static RowSet list(const std::vector<index_t>& ids) noexcept {
    return {ids.data(), static_cast<index_t>(ids.size())};
  }

  /// Row id at position p.
  index_t operator[](index_t p) const noexcept {
    return ids != nullptr ? ids[p] : p;
  }

  /// True when every listed row is below `rows`.
  bool within(index_t rows) const noexcept {
    return count == 0 || (*this)[count - 1] < rows;
  }

  /// Positions [first, last) of the listed rows that lie in [begin, end).
  std::pair<index_t, index_t> positions(index_t begin,
                                        index_t end) const noexcept {
    if (ids == nullptr)
      return {std::min(begin, count), std::min(end, count)};
    const index_t* first = std::lower_bound(ids, ids + count, begin);
    const index_t* last = std::lower_bound(first, ids + count, end);
    return {static_cast<index_t>(first - ids), static_cast<index_t>(last - ids)};
  }
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols, real_t fill_value = 0);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  real_t& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  real_t operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  std::span<real_t> row(index_t i) {
    return {data_.data() + static_cast<std::size_t>(i) * cols_, cols_};
  }
  std::span<const real_t> row(index_t i) const {
    return {data_.data() + static_cast<std::size_t>(i) * cols_, cols_};
  }

  real_t* data() noexcept { return data_.data(); }
  const real_t* data() const noexcept { return data_.data(); }
  std::size_t size() const noexcept { return data_.size(); }

  void fill(real_t v);
  void zero() { fill(0); }

  /// Resizes, discarding contents: every entry is set to fill_value, in one
  /// serial pass over the whole matrix.
  void resize(index_t rows, index_t cols, real_t fill_value = 0);

  /// Resizes for a caller that writes every entry before it reads one: the
  /// contents are unspecified (old values, or uninitialised storage past the
  /// old size), and no pass over the matrix is made. Storage is reused
  /// whenever the capacity allows, as with resize.
  void resize_for_overwrite(index_t rows, index_t cols);

  Matrix transposed() const;

  real_t frobenius_norm() const;

  /// max_ij |a_ij - b_ij|; matrices must be the same shape.
  static real_t max_abs_diff(const Matrix& a, const Matrix& b);

  /// i.i.d. Uniform(0,1) entries.
  static Matrix random_uniform(index_t rows, index_t cols, Rng& rng);

  /// i.i.d. standard normal entries.
  static Matrix random_normal(index_t rows, index_t cols, Rng& rng);

  bool operator==(const Matrix& other) const = default;

  /// Alignment of the storage base pointer.
  static constexpr std::size_t kAlignment = kNumericAlignment;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  aligned_real_vector data_;
};

}  // namespace mdcp
