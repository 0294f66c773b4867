#include "tensor/ttv.hpp"

#include "mttkrp/microkernel.hpp"
#include "util/error.hpp"

namespace mdcp {

namespace {

bool same_projection(const CooTensor& x, const std::vector<mode_t>& keep,
                     nnz_t a, nnz_t b) {
  for (mode_t m : keep)
    if (x.index(m, a) != x.index(m, b)) return false;
  return true;
}

}  // namespace

CooTensor ttv(const CooTensor& x, mode_t mode, std::span<const real_t> v) {
  MDCP_CHECK(mode < x.order());
  MDCP_CHECK_MSG(v.size() == x.dim(mode), "TTV vector length mismatch");

  std::vector<mode_t> keep;
  for (mode_t m = 0; m < x.order(); ++m)
    if (m != mode) keep.push_back(m);

  shape_t out_shape = x.shape();
  out_shape[mode] = 1;
  CooTensor out(out_shape);
  if (x.nnz() == 0) return out;

  const auto perm = x.sorted_permutation(keep);
  std::vector<index_t> c(x.order());
  real_t acc = 0;
  for (nnz_t p = 0; p < perm.size(); ++p) {
    const nnz_t i = perm[p];
    acc += x.value(i) * v[x.index(mode, i)];
    const bool group_end =
        (p + 1 == perm.size()) || !same_projection(x, keep, i, perm[p + 1]);
    if (group_end) {
      for (mode_t m = 0; m < x.order(); ++m)
        c[m] = (m == mode) ? 0 : x.index(m, i);
      out.push_back(c, acc);
      acc = 0;
    }
  }
  return out;
}

SemiSparseTensor ttm(const CooTensor& x, mode_t mode, const Matrix& u) {
  MDCP_CHECK(mode < x.order());
  MDCP_CHECK_MSG(u.rows() == x.dim(mode), "TTM matrix row count mismatch");
  const index_t r = u.cols();

  SemiSparseTensor z;
  for (mode_t m = 0; m < x.order(); ++m)
    if (m != mode) z.modes.push_back(m);
  z.idx.resize(z.modes.size());
  if (x.nnz() == 0) {
    z.values.resize(0, r);
    return z;
  }

  const auto perm = x.sorted_permutation(z.modes);

  // First pass: count groups to size the value matrix.
  nnz_t groups = 1;
  for (nnz_t p = 1; p < perm.size(); ++p)
    groups += !same_projection(x, z.modes, perm[p], perm[p - 1]);
  z.values.resize(static_cast<index_t>(groups), r, 0);
  for (auto& arr : z.idx) arr.reserve(groups);

  const mk::Kernel mk(r);
  nnz_t g = 0;
  for (nnz_t p = 0; p < perm.size(); ++p) {
    const nnz_t i = perm[p];
    if (p > 0 && !same_projection(x, z.modes, i, perm[p - 1])) ++g;
    if (p == 0 || g == z.idx[0].size()) {
      // New group: record its projected coordinates.
      for (std::size_t mp = 0; mp < z.modes.size(); ++mp)
        z.idx[mp].push_back(x.index(z.modes[mp], i));
    }
    mk.axpy_accum(z.values.row(static_cast<index_t>(g)).data(),
                  u.row(x.index(mode, i)).data(), x.value(i));
  }
  return z;
}

}  // namespace mdcp
