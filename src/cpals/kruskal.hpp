// Kruskal tensors: the output format of CP decomposition.
//
// A rank-R Kruskal tensor is λ ∈ R^R plus N factor matrices U^(n) ∈ R^{Iₙ×R};
// it represents Σ_r λ_r · u_r^(1) ∘ ⋯ ∘ u_r^(N). This module also carries the
// standard O(nnz·R + N·R²) fit computation used to monitor ALS convergence
// without ever materializing the dense reconstruction.
#pragma once

#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/types.hpp"

namespace mdcp {

struct KruskalTensor {
  std::vector<real_t> weights;  ///< λ, size R
  std::vector<Matrix> factors;  ///< U^(n), each Iₙ×R

  index_t rank() const noexcept {
    return static_cast<index_t>(weights.size());
  }
  mode_t order() const noexcept { return static_cast<mode_t>(factors.size()); }

  /// Value of the model at one coordinate (O(N·R)).
  real_t value_at(std::span<const index_t> coords) const;

  /// Frobenius norm of the represented tensor, computed from the Gram
  /// matrices in O(N·I·R²) — never materializes the dense tensor.
  real_t norm() const;

  /// Throws mdcp::error on inconsistent ranks/shapes.
  void validate() const;
};

/// ⟨X, M⟩ for sparse X and Kruskal M, evaluated directly over the nonzeros
/// (O(nnz·N·R)). Used by tests; CP-ALS uses the cheaper MTTKRP-based form.
real_t inner_product(const CooTensor& x, const KruskalTensor& m);

/// ⟨X, M⟩ given the final mode's MTTKRP result: Σ_r λ_r Σ_i U(i,r)·M(i,r),
/// where `mttkrp_last` is the MTTKRP of X in `mode` under M's other factors.
real_t inner_product_from_mttkrp(const KruskalTensor& m,
                                 const Matrix& mttkrp_last, mode_t mode);

/// Fit = 1 − ‖X − M‖ / ‖X‖, from precomputed ‖X‖ and ⟨X,M⟩. Runs under
/// FlushSubnormals (util/fpenv.hpp), like the la kernels CP-ALS calls.
real_t fit_from_parts(real_t x_norm, real_t inner, real_t m_norm);

/// Fully evaluates ‖X − M‖ over X's nonzeros *and* M's mass off the nonzeros.
/// Exact and O(nnz·N·R + N·I·R²); used as the test oracle for the fast path.
real_t residual_norm(const CooTensor& x, const KruskalTensor& m);

/// Factor-match score between two Kruskal models of the same shape/rank in
/// [0, 1]: for each component of `truth`, the best-matching unused component
/// of `estimate` is found greedily, scored by the product over modes of the
/// absolute cosine between the factor columns, and the scores are averaged.
/// Handles CP's permutation and sign indeterminacy; 1.0 = exact recovery.
/// The standard "congruence" diagnostic for planted-recovery experiments.
real_t factor_congruence(const KruskalTensor& truth,
                         const KruskalTensor& estimate);

}  // namespace mdcp
