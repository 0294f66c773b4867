// Coordinate-format (COO) sparse tensor.
//
// This is the canonical interchange representation in mdcp: generators and
// I/O produce it, and the CSF / dimension-tree engines are constructed from
// it. Indices are stored structure-of-arrays (one contiguous array per mode)
// so per-mode scans and projections touch minimal memory.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace mdcp {

class CooTensor {
 public:
  CooTensor() = default;

  /// Empty tensor with the given mode sizes.
  explicit CooTensor(shape_t shape);

  /// Takes ownership of ready-made per-mode index arrays and values, and
  /// validates them once (arity, lengths, index ranges).
  CooTensor(shape_t shape, std::vector<std::vector<index_t>> indices,
            std::vector<real_t> values);

  mode_t order() const noexcept { return static_cast<mode_t>(shape_.size()); }
  nnz_t nnz() const noexcept { return vals_.size(); }
  const shape_t& shape() const noexcept { return shape_; }
  index_t dim(mode_t m) const { return shape_.at(m); }

  /// Total number of positions (product of mode sizes), as a double because
  /// it overflows integers for large tensors. Used for density reporting.
  double logical_size() const noexcept;

  void reserve(nnz_t n);

  /// Appends one nonzero. `coords` must have exactly `order()` entries.
  void push_back(std::span<const index_t> coords, real_t value);

  index_t index(mode_t m, nnz_t i) const { return idx_[m][i]; }
  real_t value(nnz_t i) const { return vals_[i]; }
  real_t& value(nnz_t i) { return vals_[i]; }

  std::span<const index_t> mode_indices(mode_t m) const {
    return {idx_[m].data(), idx_[m].size()};
  }
  std::span<const real_t> values() const { return {vals_.data(), vals_.size()}; }
  std::span<real_t> values() { return {vals_.data(), vals_.size()}; }

  /// Writes the coordinates of nonzero i into `out` (size >= order()).
  void coords(nnz_t i, std::span<index_t> out) const;

  /// Lexicographic comparison of two nonzeros under a mode priority order.
  bool tuple_less(nnz_t a, nnz_t b, std::span<const mode_t> mode_order) const;

  /// Returns a permutation that sorts nonzeros lexicographically by the given
  /// mode priority order (stable; a radix sort, see tensor/radix_sort.hpp).
  std::vector<nnz_t> sorted_permutation(std::span<const mode_t> mode_order) const;

  /// Reorders nonzeros in place according to `perm` (perm[i] = old position
  /// of the element that moves to position i).
  void apply_permutation(std::span<const nnz_t> perm);

  /// Sorts nonzeros lexicographically by the given mode priority order.
  void sort_by_modes(std::span<const mode_t> mode_order);

  /// Sorts by modes 0..N-1 and merges duplicate coordinates by summing their
  /// values. Zero-valued results are kept (callers may prune explicitly).
  void coalesce();

  /// Removes nonzeros with |value| <= tol.
  void prune(real_t tol = 0);

  /// Frobenius norm.
  real_t norm() const;

  /// Number of distinct indices appearing in mode m.
  index_t distinct_in_mode(mode_t m) const;

  /// Throws mdcp::error if any index is out of range or arrays are ragged.
  void validate() const;

  /// Human-readable one-line summary ("3-mode 100x100x100, nnz=5000").
  std::string summary() const;

  bool operator==(const CooTensor& other) const;

 private:
  shape_t shape_;
  std::vector<std::vector<index_t>> idx_;  // [mode][nonzero]
  std::vector<real_t> vals_;
};

}  // namespace mdcp
