#include "cpals/cp_mu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "la/blas.hpp"
#include "obs/phase.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {
constexpr real_t kEps = 1e-12;  // denominator guard
}

CpAlsResult cp_mu(const CooTensor& tensor, const CpAlsOptions& options) {
  const auto engine = make_cp_engine(options);
  return cp_mu(tensor, *engine, options);
}

CpAlsResult cp_mu(const CooTensor& tensor, MttkrpEngine& engine,
                  const CpAlsOptions& options) {
  MDCP_CHECK_MSG(options.rank > 0, "rank must be positive");
  MDCP_CHECK_MSG(options.max_iterations > 0, "need at least one iteration");
  for (real_t v : tensor.values())
    MDCP_CHECK_MSG(v >= 0, "cp_mu requires a nonnegative tensor");

  const mode_t order = tensor.order();
  const index_t rank = options.rank;
  engine.invalidate_all();
  if (!engine.prepared()) engine.prepare(tensor, rank);

  CpAlsResult result;
  result.engine_name = engine.name();

  // Phases accumulate straight into the result; the MTTKRP seconds are the
  // engine probe's own (the KernelStats::numeric_seconds delta).
  WallTimer total_timer;

  // Strictly positive initialization keeps the multiplicative iterates
  // well-defined.
  Rng rng(options.seed);
  std::vector<Matrix> factors;
  for (mode_t m = 0; m < order; ++m) {
    Matrix f = Matrix::random_uniform(tensor.dim(m), rank, rng);
    for (std::size_t e = 0; e < f.size(); ++e) f.data()[e] += real_t{0.1};
    factors.push_back(std::move(f));
  }
  std::vector<Matrix> grams(order);
  for (mode_t m = 0; m < order; ++m) gram(factors[m], grams[m]);

  const real_t x_norm = tensor.norm();
  Matrix m_out, h, denom;
  real_t prev_fit = 0;

  const auto all_finite = [](const Matrix& m) {
    for (std::size_t e = 0; e < m.size(); ++e)
      if (!std::isfinite(m.data()[e])) return false;
    return true;
  };
  // Bounded restart mirroring cp_als: re-draw the offending factor (kept
  // strictly positive, as at initialization) and keep sweeping.
  const auto recover_factor = [&](mode_t n, const char* why) {
    ++result.recoveries;
    if (result.recoveries > options.max_recoveries)
      throw numeric_error(std::string("cp-mu: numerical recovery budget "
                                      "exhausted (last cause: ") +
                          why + ")");
    if (options.verbose)
      std::printf("[cp-mu] recovery %d: %s, re-randomizing factor %u\n",
                  result.recoveries, why, static_cast<unsigned>(n));
    Matrix f = Matrix::random_uniform(tensor.dim(n), rank, rng);
    for (std::size_t e = 0; e < f.size(); ++e) f.data()[e] += real_t{0.1};
    factors[n] = std::move(f);
    gram(factors[n], grams[n]);
    engine.factor_updated(n);
  };

  for (int it = 0; it < options.max_iterations; ++it) {
    for (mode_t n = 0; n < order; ++n) {
      const double numeric_before = engine.stats().numeric_seconds;
      engine.compute(n, factors, m_out);
      result.mttkrp_seconds += engine.stats().numeric_seconds - numeric_before;

      const auto mode_arg = static_cast<std::int64_t>(n);
      {
        obs::Phase phase(obs::FrPhase::kSolve, "cpals.hadamard", mode_arg,
                         result.hadamard_seconds);
        h.resize(rank, rank, 1);
        for (mode_t i = 0; i < order; ++i)
          if (i != n) hadamard_inplace(h, grams[i]);
      }
      // The multiplicative update plays the solve's part in the step split.
      auto& u = factors[n];
      bool update_ok = true;
      {
        obs::Phase phase(obs::FrPhase::kSolve, "cpals.solve", mode_arg,
                         result.solve_seconds);
        multiply_into(factors[n], h, denom);
        parallel_for(u.rows(), [&](nnz_t i) {
          auto urow = u.row(static_cast<index_t>(i));
          const auto mrow = m_out.row(static_cast<index_t>(i));
          const auto drow = denom.row(static_cast<index_t>(i));
          for (index_t r = 0; r < rank; ++r) {
            // M is nonnegative here (nonneg tensor × nonneg factors), so the
            // update preserves nonnegativity.
            urow[r] *= mrow[r] / (drow[r] + kEps);
          }
        });
        // A poisoned MTTKRP output (or overflow) that reached the
        // multiplicative update must not reach the Gram refresh, which would
        // spread it to every mode.
        update_ok = all_finite(u);
        if (!update_ok) recover_factor(n, "non-finite factor update");
      }
      if (update_ok) {
        obs::Phase phase(obs::FrPhase::kSolve, "cpals.gram", mode_arg,
                         result.gram_seconds);
        gram(u, grams[n]);
      }

      engine.factor_updated(n);
    }

    // ⟨X,M⟩ and ‖M‖ from state in hand (λ ≡ 1 here; scale lives in factors).
    real_t fit = 0;
    {
      obs::Phase phase(obs::FrPhase::kFit, "cpals.fit", it,
                       result.fit_seconds);
      real_t inner = 0;
      {
        const auto& u = factors[order - 1];
        for (index_t i = 0; i < u.rows(); ++i) {
          const auto urow = u.row(i);
          const auto mrow = m_out.row(i);
          for (index_t r = 0; r < rank; ++r) inner += urow[r] * mrow[r];
        }
      }
      real_t m_norm_sq = 0;
      {
        Matrix acc(rank, rank, 1);
        for (mode_t i = 0; i < order; ++i) hadamard_inplace(acc, grams[i]);
        for (index_t r = 0; r < rank; ++r)
          for (index_t q = 0; q < rank; ++q) m_norm_sq += acc(r, q);
      }
      fit = fit_from_parts(x_norm, inner,
                           std::sqrt(std::max<real_t>(m_norm_sq, 0)));
    }

    bool recovered_this_iter = false;
    if (!std::isfinite(fit)) {
      recover_factor(static_cast<mode_t>(order - 1), "non-finite fit");
      fit = prev_fit;
      recovered_this_iter = true;
    }

    result.fits.push_back(fit);
    result.iterations = it + 1;
    if (options.verbose)
      std::printf("[cp-mu %s] iter %3d fit %.6f\n", engine.name().c_str(),
                  it + 1, static_cast<double>(fit));
    if (!recovered_this_iter && it > 0 &&
        std::abs(fit - prev_fit) < options.tolerance) {
      result.converged = true;
      prev_fit = fit;
      break;
    }
    prev_fit = fit;
  }

  // Normalize columns into weights for a canonical Kruskal result.
  result.model.factors = std::move(factors);
  result.model.weights.assign(rank, 1);
  std::vector<real_t> lambda(rank, 1);
  for (mode_t m = 0; m < order; ++m) {
    const auto norms = column_normalize(result.model.factors[m]);
    for (index_t r = 0; r < rank; ++r) lambda[r] *= norms[r];
  }
  result.model.weights = std::move(lambda);

  result.dense_seconds =
      result.hadamard_seconds + result.solve_seconds + result.gram_seconds;
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace mdcp
