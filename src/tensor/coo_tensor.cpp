#include "tensor/coo_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "tensor/radix_sort.hpp"
#include "util/error.hpp"

namespace mdcp {

CooTensor::CooTensor(shape_t shape) : shape_(std::move(shape)) {
  MDCP_CHECK_MSG(!shape_.empty(), "tensor must have at least one mode");
  MDCP_CHECK_MSG(shape_.size() <= kMaxOrder, "tensor order exceeds kMaxOrder");
  for (index_t d : shape_) MDCP_CHECK_MSG(d > 0, "mode sizes must be positive");
  idx_.resize(shape_.size());
}

CooTensor::CooTensor(shape_t shape, std::vector<std::vector<index_t>> indices,
                     std::vector<real_t> values)
    : CooTensor(std::move(shape)) {
  MDCP_CHECK_MSG(indices.size() == shape_.size(),
                 "got " << indices.size() << " index arrays for "
                        << shape_.size() << " modes");
  idx_ = std::move(indices);
  vals_ = std::move(values);
  validate();
}

double CooTensor::logical_size() const noexcept {
  double p = 1;
  for (index_t d : shape_) p *= static_cast<double>(d);
  return p;
}

void CooTensor::reserve(nnz_t n) {
  for (auto& a : idx_) a.reserve(n);
  vals_.reserve(n);
}

void CooTensor::push_back(std::span<const index_t> coords, real_t value) {
  MDCP_CHECK_MSG(coords.size() == shape_.size(),
                 "coordinate arity mismatch: got " << coords.size()
                                                   << ", expected "
                                                   << shape_.size());
  for (mode_t m = 0; m < order(); ++m) {
    MDCP_CHECK_MSG(coords[m] < shape_[m], "index " << coords[m]
                                                   << " out of range in mode "
                                                   << m);
    idx_[m].push_back(coords[m]);
  }
  vals_.push_back(value);
}

void CooTensor::coords(nnz_t i, std::span<index_t> out) const {
  MDCP_CHECK(out.size() >= shape_.size());
  for (mode_t m = 0; m < order(); ++m) out[m] = idx_[m][i];
}

bool CooTensor::tuple_less(nnz_t a, nnz_t b,
                           std::span<const mode_t> mode_order) const {
  for (mode_t m : mode_order) {
    const index_t ia = idx_[m][a];
    const index_t ib = idx_[m][b];
    if (ia != ib) return ia < ib;
  }
  return false;
}

std::vector<nnz_t> CooTensor::sorted_permutation(
    std::span<const mode_t> mode_order) const {
  std::vector<SortKey> keys;
  keys.reserve(mode_order.size());
  for (mode_t m : mode_order) keys.push_back({mode_indices(m), dim(m)});
  return radix_sort_permutation(keys, nnz());
}

void CooTensor::apply_permutation(std::span<const nnz_t> perm) {
  MDCP_CHECK(perm.size() == nnz());
  std::vector<real_t> new_vals(nnz());
  for (nnz_t i = 0; i < nnz(); ++i) new_vals[i] = vals_[perm[i]];
  vals_ = std::move(new_vals);
  std::vector<index_t> buf(nnz());
  for (auto& arr : idx_) {
    for (nnz_t i = 0; i < nnz(); ++i) buf[i] = arr[perm[i]];
    arr.swap(buf);
  }
}

void CooTensor::sort_by_modes(std::span<const mode_t> mode_order) {
  const auto perm = sorted_permutation(mode_order);
  apply_permutation(perm);
}

void CooTensor::coalesce() {
  if (nnz() == 0) return;
  std::vector<mode_t> natural(order());
  std::iota(natural.begin(), natural.end(), mode_t{0});
  sort_by_modes(natural);

  const auto same_coords = [&](nnz_t a, nnz_t b) {
    for (mode_t m = 0; m < order(); ++m)
      if (idx_[m][a] != idx_[m][b]) return false;
    return true;
  };

  nnz_t w = 0;  // write cursor
  for (nnz_t r = 1; r < nnz(); ++r) {
    if (same_coords(w, r)) {
      vals_[w] += vals_[r];
    } else {
      ++w;
      for (mode_t m = 0; m < order(); ++m) idx_[m][w] = idx_[m][r];
      vals_[w] = vals_[r];
    }
  }
  const nnz_t new_size = w + 1;
  for (auto& arr : idx_) arr.resize(new_size);
  vals_.resize(new_size);
}

void CooTensor::prune(real_t tol) {
  nnz_t w = 0;
  for (nnz_t r = 0; r < nnz(); ++r) {
    if (std::abs(vals_[r]) > tol) {
      if (w != r) {
        for (mode_t m = 0; m < order(); ++m) idx_[m][w] = idx_[m][r];
        vals_[w] = vals_[r];
      }
      ++w;
    }
  }
  for (auto& arr : idx_) arr.resize(w);
  vals_.resize(w);
}

real_t CooTensor::norm() const {
  real_t s = 0;
  for (real_t v : vals_) s += v * v;
  return std::sqrt(s);
}

index_t CooTensor::distinct_in_mode(mode_t m) const {
  MDCP_CHECK(m < order());
  std::vector<index_t> seen(idx_[m]);
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return static_cast<index_t>(seen.size());
}

void CooTensor::validate() const {
  MDCP_CHECK(idx_.size() == shape_.size());
  for (mode_t m = 0; m < order(); ++m) {
    MDCP_CHECK_MSG(idx_[m].size() == vals_.size(),
                   "ragged index arrays in mode " << m);
    for (index_t v : idx_[m])
      MDCP_CHECK_MSG(v < shape_[m],
                     "index " << v << " out of range in mode " << m);
  }
}

std::string CooTensor::summary() const {
  std::ostringstream os;
  os << order() << "-mode ";
  for (mode_t m = 0; m < order(); ++m) {
    if (m) os << 'x';
    os << shape_[m];
  }
  os << ", nnz=" << nnz();
  return os.str();
}

bool CooTensor::operator==(const CooTensor& other) const {
  return shape_ == other.shape_ && idx_ == other.idx_ && vals_ == other.vals_;
}

}  // namespace mdcp
