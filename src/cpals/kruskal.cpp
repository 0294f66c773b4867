#include "cpals/kruskal.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"

namespace mdcp {

real_t KruskalTensor::value_at(std::span<const index_t> coords) const {
  MDCP_CHECK(coords.size() == factors.size());
  real_t v = 0;
  for (index_t r = 0; r < rank(); ++r) {
    real_t prod = weights[r];
    for (mode_t m = 0; m < order(); ++m) prod *= factors[m](coords[m], r);
    v += prod;
  }
  return v;
}

real_t KruskalTensor::norm() const {
  // ‖M‖² = Σ_{r,s} λ_r λ_s Π_n ⟨u_r^(n), u_s^(n)⟩ = 1ᵀ (λλᵀ ∘ ∘_n Gram_n) 1.
  const index_t r = rank();
  Matrix acc(r, r, 1);
  for (const auto& f : factors) hadamard_inplace(acc, gram(f));
  real_t s = 0;
  for (index_t i = 0; i < r; ++i)
    for (index_t j = 0; j < r; ++j) s += weights[i] * weights[j] * acc(i, j);
  // Guard round-off: the quadratic form is mathematically nonnegative.
  return std::sqrt(std::max<real_t>(s, 0));
}

void KruskalTensor::validate() const {
  MDCP_CHECK_MSG(!factors.empty(), "Kruskal tensor needs at least one factor");
  for (const auto& f : factors)
    MDCP_CHECK_MSG(f.cols() == rank(), "factor rank mismatch with weights");
}

real_t inner_product(const CooTensor& x, const KruskalTensor& m) {
  MDCP_CHECK(x.order() == m.order());
  real_t s = 0;
  std::vector<index_t> c(x.order());
  for (nnz_t i = 0; i < x.nnz(); ++i) {
    x.coords(i, c);
    s += x.value(i) * m.value_at(c);
  }
  return s;
}

real_t inner_product_from_mttkrp(const KruskalTensor& m,
                                 const Matrix& mttkrp_last, mode_t mode) {
  const auto& u = m.factors[mode];
  MDCP_CHECK(u.rows() == mttkrp_last.rows() && u.cols() == mttkrp_last.cols());
  real_t s = 0;
  for (index_t i = 0; i < u.rows(); ++i) {
    const auto urow = u.row(i);
    const auto mrow = mttkrp_last.row(i);
    for (index_t r = 0; r < u.cols(); ++r)
      s += m.weights[r] * urow[r] * mrow[r];
  }
  return s;
}

real_t fit_from_parts(real_t x_norm, real_t inner, real_t m_norm) {
  const FlushSubnormals fp;
  const real_t resid_sq =
      std::max<real_t>(x_norm * x_norm - 2 * inner + m_norm * m_norm, 0);
  if (x_norm <= 0) return 0;
  return 1 - std::sqrt(resid_sq) / x_norm;
}

real_t factor_congruence(const KruskalTensor& truth,
                         const KruskalTensor& estimate) {
  MDCP_CHECK(truth.order() == estimate.order());
  MDCP_CHECK(truth.rank() == estimate.rank());
  const index_t rank = truth.rank();
  const mode_t order = truth.order();

  // Per-mode column cosine tables: cos[m](r, s) = |<t_r, e_s>|/(‖t_r‖‖e_s‖).
  std::vector<Matrix> cos(order);
  for (mode_t m = 0; m < order; ++m) {
    const auto& a = truth.factors[m];
    const auto& b = estimate.factors[m];
    MDCP_CHECK(a.rows() == b.rows());
    cos[m].resize(rank, rank, 0);
    std::vector<real_t> an(rank, 0), bn(rank, 0);
    for (index_t i = 0; i < a.rows(); ++i) {
      for (index_t r = 0; r < rank; ++r) {
        an[r] += a(i, r) * a(i, r);
        bn[r] += b(i, r) * b(i, r);
      }
    }
    for (index_t r = 0; r < rank; ++r) {
      for (index_t s = 0; s < rank; ++s) {
        real_t dotp = 0;
        for (index_t i = 0; i < a.rows(); ++i) dotp += a(i, r) * b(i, s);
        const real_t denom = std::sqrt(an[r] * bn[s]);
        cos[m](r, s) = denom > 0 ? std::abs(dotp) / denom : 0;
      }
    }
  }

  // Greedy assignment on the product-of-cosines score.
  std::vector<bool> used(rank, false);
  real_t total = 0;
  for (index_t r = 0; r < rank; ++r) {
    real_t best = -1;
    index_t best_s = 0;
    for (index_t s = 0; s < rank; ++s) {
      if (used[s]) continue;
      real_t score = 1;
      for (mode_t m = 0; m < order; ++m) score *= cos[m](r, s);
      if (score > best) {
        best = score;
        best_s = s;
      }
    }
    used[best_s] = true;
    total += best;
  }
  return total / rank;
}

real_t residual_norm(const CooTensor& x, const KruskalTensor& m) {
  // ‖X−M‖² = ‖X‖² − 2⟨X,M⟩ + ‖M‖², all three pieces exact.
  const real_t xn = x.norm();
  const real_t ip = inner_product(x, m);
  const real_t mn = m.norm();
  return std::sqrt(std::max<real_t>(xn * xn - 2 * ip + mn * mn, 0));
}

}  // namespace mdcp
