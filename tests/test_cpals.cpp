#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "cpals/cp_mu.hpp"
#include "cpals/cpals.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"

namespace mdcp {
namespace {

using mdcp::testing::exact_engine_names;

TEST(CpAls, RecoversPlantedLowRankTensor) {
  // Noiseless rank-3 data on a fully observed grid: ALS should fit it almost
  // perfectly. (A sparsely *sampled* low-rank model is not itself low-rank —
  // unstored entries are true zeros to sparse CP-ALS.)
  const auto planted = generate_planted_dense(shape_t{12, 14, 16}, 3, 0.0, 1);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 60;
  opt.tolerance = 1e-9;
  opt.engine = "dtree-bdt";
  // Multiple restarts: single-init ALS can land in a local minimum.
  const auto result = cp_als_best_of(planted.tensor, opt, 3);
  EXPECT_GT(result.final_fit(), 0.98) << "iterations " << result.iterations;
}

TEST(CpAls, BestOfPicksBestRestart) {
  const auto planted = generate_planted_dense(shape_t{10, 10, 10}, 2, 0.0, 3);
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 40;
  opt.tolerance = 1e-9;
  const auto single = cp_als(planted.tensor, opt);
  const auto multi = cp_als_best_of(planted.tensor, opt, 4);
  EXPECT_GE(multi.final_fit(), single.final_fit() - 1e-9);
}

TEST(CpAls, FitNonDecreasingUpToTolerance) {
  const auto t = generate_zipf(shape_t{25, 30, 35, 40}, 3000, 1.1, 3);
  CpAlsOptions opt;
  opt.rank = 8;
  opt.max_iterations = 15;
  opt.tolerance = 0;  // run all iterations
  const auto result = cp_als(t, opt);
  ASSERT_EQ(result.iterations, 15);
  for (std::size_t i = 1; i < result.fits.size(); ++i) {
    EXPECT_GE(result.fits[i], result.fits[i - 1] - 1e-8)
        << "iteration " << i;
  }
}

TEST(CpAls, ConvergesAndStopsEarly) {
  const auto planted = generate_planted_dense(shape_t{10, 12, 14}, 2, 0.0, 5);
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 200;
  opt.tolerance = 1e-7;
  const auto result = cp_als(planted.tensor, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 200);
}

TEST(CpAls, AllEnginesProduceIdenticalTrajectories) {
  // Every engine computes the exact same MTTKRP, and the driver is otherwise
  // deterministic, so the per-iteration fits must agree to round-off.
  const auto t = generate_uniform(shape_t{15, 18, 21, 24}, 1200, 7);
  CpAlsOptions opt;
  opt.rank = 5;
  opt.max_iterations = 8;
  opt.tolerance = 0;
  opt.seed = 99;

  std::vector<real_t> reference_fits;
  for (const auto& name : exact_engine_names()) {
    opt.engine = name;
    const auto result = cp_als(t, opt);
    ASSERT_EQ(result.fits.size(), 8u) << name;
    if (reference_fits.empty()) {
      reference_fits = result.fits;
    } else {
      for (std::size_t i = 0; i < reference_fits.size(); ++i) {
        EXPECT_NEAR(result.fits[i], reference_fits[i], 1e-8)
            << name << " iteration " << i;
      }
    }
  }
}

TEST(CpAls, AutoEngineMatchesExplicitTrajectory) {
  const auto t = generate_clustered(shape_t{40, 40, 40, 40}, 2000,
                                    {.clusters = 8, .spread = 3.0}, 9);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 6;
  opt.tolerance = 0;
  opt.engine = "dtree-bdt";
  const auto expect = cp_als(t, opt);
  opt.engine = "auto";
  const auto got = cp_als(t, opt);
  ASSERT_EQ(got.fits.size(), expect.fits.size());
  for (std::size_t i = 0; i < got.fits.size(); ++i)
    EXPECT_NEAR(got.fits[i], expect.fits[i], 1e-8);
  EXPECT_EQ(got.engine_name.rfind("auto:", 0), 0u);
}

TEST(CpAls, FitMatchesExactResidual) {
  // The fast fit identity must agree with the exact residual computation.
  const auto t = generate_uniform(shape_t{12, 14, 16}, 600, 11);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 5;
  opt.tolerance = 0;
  const auto result = cp_als(t, opt);
  const real_t exact_fit = 1 - residual_norm(t, result.model) / t.norm();
  EXPECT_NEAR(result.final_fit(), exact_fit, 1e-8);
}

TEST(CpAls, ReusedEngineGivesSameResult) {
  // The amortization pattern: one engine, several CP-ALS runs (e.g. rank
  // search / multiple restarts). State must be fully reset between runs.
  const auto t = generate_uniform(shape_t{15, 15, 15, 15}, 800, 13);
  auto engine = make_engine("dtree-bdt", t, 4);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 5;
  opt.tolerance = 0;
  const auto first = cp_als(t, *engine, opt);
  const auto second = cp_als(t, *engine, opt);
  ASSERT_EQ(first.fits.size(), second.fits.size());
  for (std::size_t i = 0; i < first.fits.size(); ++i)
    EXPECT_DOUBLE_EQ(first.fits[i], second.fits[i]);
}

TEST(CpAls, DifferentSeedsDifferentInits) {
  const auto t = generate_uniform(shape_t{15, 15, 15}, 500, 17);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 1;
  opt.tolerance = 0;
  opt.seed = 1;
  const auto a = cp_als(t, opt);
  opt.seed = 2;
  const auto b = cp_als(t, opt);
  EXPECT_NE(a.fits[0], b.fits[0]);
}

TEST(CpAls, TimingDissectionPopulated) {
  const auto t = generate_uniform(shape_t{20, 20, 20}, 1000, 19);
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  const auto result = cp_als(t, opt);
  EXPECT_GT(result.mttkrp_seconds, 0.0);
  EXPECT_GT(result.dense_seconds, 0.0);
  EXPECT_GT(result.fit_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.mttkrp_seconds);
}

TEST(CpAls, ModelShapesMatchInput) {
  const auto t = generate_uniform(shape_t{9, 11, 13}, 300, 23);
  CpAlsOptions opt;
  opt.rank = 5;
  opt.max_iterations = 2;
  const auto result = cp_als(t, opt);
  ASSERT_EQ(result.model.order(), 3);
  EXPECT_EQ(result.model.rank(), 5u);
  for (mode_t m = 0; m < 3; ++m) {
    EXPECT_EQ(result.model.factors[m].rows(), t.dim(m));
    EXPECT_EQ(result.model.factors[m].cols(), 5u);
  }
  result.model.validate();
}

TEST(CpAls, FactorColumnsAreUnitNorm) {
  const auto t = generate_uniform(shape_t{10, 12, 14}, 400, 29);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  const auto result = cp_als(t, opt);
  // The last-updated factor (mode N-1) is explicitly normalized.
  const auto& u = result.model.factors[2];
  for (index_t r = 0; r < 4; ++r) {
    real_t norm = 0;
    for (index_t i = 0; i < u.rows(); ++i) norm += u(i, r) * u(i, r);
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-10);
  }
}

TEST(CpAls, InvalidOptionsThrow) {
  const auto t = generate_uniform(shape_t{5, 5}, 20, 31);
  CpAlsOptions opt;
  opt.rank = 0;
  EXPECT_THROW(cp_als(t, opt), error);
  opt.rank = 2;
  opt.max_iterations = 0;
  EXPECT_THROW(cp_als(t, opt), error);
}

TEST(CpAls, HigherOrderSmoke) {
  const auto planted =
      generate_planted_dense(shape_t{4, 4, 4, 4, 4, 4}, 2, 0.0, 37);
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 40;
  opt.tolerance = 1e-8;
  opt.engine = "dtree-bdt";
  const auto result = cp_als_best_of(planted.tensor, opt, 3);
  EXPECT_GT(result.final_fit(), 0.95);
}

TEST(CpAls, NonnegativeFactorsStayNonnegative) {
  // Count-like data (all values positive): projected ALS must produce
  // entrywise nonnegative factors and still fit reasonably.
  const auto t = generate_zipf(shape_t{30, 35, 40}, 2500, 1.2, 41);
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 12;
  opt.tolerance = 0;
  opt.nonnegative = true;
  const auto result = cp_als(t, opt);
  for (mode_t m = 0; m < 3; ++m) {
    const auto& f = result.model.factors[m];
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t r = 0; r < f.cols(); ++r)
        EXPECT_GE(f(i, r), 0.0) << "mode " << m;
  }
  for (real_t w : result.model.weights) EXPECT_GE(w, 0.0);
  EXPECT_GT(result.final_fit(), 0.0);
}

TEST(CpAls, NonnegativeFitNotWildlyWorse) {
  const auto planted = generate_planted_dense(shape_t{8, 8, 8}, 2, 0.0, 43);
  // Make the planted data nonnegative by flipping the sign structure: use
  // absolute values so a nonnegative model is feasible-ish.
  CooTensor t = planted.tensor;
  for (nnz_t i = 0; i < t.nnz(); ++i) t.value(i) = std::abs(t.value(i));
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 30;
  opt.tolerance = 1e-7;
  opt.nonnegative = true;
  const auto nn = cp_als(t, opt);
  EXPECT_GT(nn.final_fit(), 0.3);
}

TEST(CpAls, RidgeStabilizesRankDeficientFit) {
  // Rank-1 data at rank 4 makes H singular without regularization; with a
  // ridge the Cholesky fast path always succeeds and the fit stays high.
  const auto planted = generate_planted_dense(shape_t{8, 8, 8}, 1, 0.0, 61);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 20;
  opt.tolerance = 0;
  opt.ridge = 1e-8;
  const auto result = cp_als(planted.tensor, opt);
  for (real_t f : result.fits) EXPECT_TRUE(std::isfinite(f));
  EXPECT_GT(result.final_fit(), 0.99);
}

TEST(CpAls, ZeroRidgeMatchesDefault) {
  const auto t = generate_uniform(shape_t{10, 12, 14}, 400, 63);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  const auto a = cp_als(t, opt);
  opt.ridge = 0;
  const auto b = cp_als(t, opt);
  for (std::size_t i = 0; i < a.fits.size(); ++i)
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
}

// One cp_als run rebuilt from the public layer calls, in cp_als's order:
// random_uniform init, then per mode compute → hadamard_inplace → the
// returning solve_normal_equations → column_normalize → gram →
// factor_updated, then the fit identity through fit_from_parts.
struct Replay {
  std::vector<Matrix> factors;
  std::vector<real_t> lambda;
  std::vector<real_t> fits;
};

Replay replay_cp_als(const CooTensor& t, MttkrpEngine& engine,
                     const CpAlsOptions& opt) {
  const mode_t order = t.order();
  const index_t rank = opt.rank;
  Replay r;
  r.factors = mdcp::testing::random_factors(t, rank, opt.seed);
  std::vector<Matrix> grams(order);
  for (mode_t m = 0; m < order; ++m) gram(r.factors[m], grams[m]);
  r.lambda.assign(rank, 1);
  engine.invalidate_all();
  if (!engine.prepared()) engine.prepare(t, rank);
  const real_t x_norm = t.norm();
  Matrix out, h;
  for (int it = 0; it < opt.max_iterations; ++it) {
    for (mode_t n = 0; n < order; ++n) {
      engine.compute(n, r.factors, out);
      h.resize(rank, rank, 1);
      for (mode_t i = 0; i < order; ++i)
        if (i != n) hadamard_inplace(h, grams[i]);
      SolveInfo info;
      r.factors[n] = solve_normal_equations(h, out, &info);
      EXPECT_TRUE(info.finite && info.ridge_retries == 0 &&
                  !info.used_pseudo_inverse);
      r.lambda = column_normalize(r.factors[n]);
      gram(r.factors[n], grams[n]);
      engine.factor_updated(n);
    }
    real_t inner = 0;
    const Matrix& u = r.factors[order - 1];
    for (index_t i = 0; i < u.rows(); ++i)
      for (index_t q = 0; q < rank; ++q)
        inner += r.lambda[q] * u(i, q) * out(i, q);
    Matrix acc(rank, rank, 1);
    for (mode_t i = 0; i < order; ++i) hadamard_inplace(acc, grams[i]);
    real_t m_norm_sq = 0;
    for (index_t p = 0; p < rank; ++p)
      for (index_t q = 0; q < rank; ++q)
        m_norm_sq += r.lambda[p] * r.lambda[q] * acc(p, q);
    r.fits.push_back(fit_from_parts(
        x_norm, inner, std::sqrt(std::max<real_t>(m_norm_sq, 0))));
  }
  return r;
}

TEST(CpAls, MatchesLayerReplayBitwise) {
  // Guards cp_als's in-place update: solving straight into factors[n] must
  // give exactly what the returning solve gives. The rows span several
  // substitution tiles plus a partial one.
  const auto t = generate_zipf(shape_t{70, 45, 90, 33}, 4000, 1.1, 71);
  CpAlsOptions opt;
  opt.rank = 7;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.seed = 123;
  for (const std::string name : {"coo", "dtree-bdt"}) {
    opt.engine = name;
    const auto result = cp_als(t, opt);
    auto engine = make_engine(name, t, opt.rank);
    const Replay replay = replay_cp_als(t, *engine, opt);
    ASSERT_EQ(result.fits.size(), replay.fits.size()) << name;
    for (std::size_t i = 0; i < replay.fits.size(); ++i)
      EXPECT_EQ(std::memcmp(&result.fits[i], &replay.fits[i], sizeof(real_t)),
                0)
          << name << " iteration " << i;
    ASSERT_EQ(result.model.weights.size(), replay.lambda.size());
    EXPECT_EQ(std::memcmp(result.model.weights.data(), replay.lambda.data(),
                          replay.lambda.size() * sizeof(real_t)),
              0)
        << name;
    for (mode_t m = 0; m < t.order(); ++m) {
      const Matrix& a = result.model.factors[m];
      const Matrix& b = replay.factors[m];
      ASSERT_EQ(a.size(), b.size()) << name << " mode " << m;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)), 0)
          << name << " mode " << m;
    }
  }
}

TEST(CpAls, DenseSplitSumsToDenseSeconds) {
  const auto t = generate_uniform(shape_t{20, 20, 20}, 1000, 19);
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  const auto result = cp_als(t, opt);
  EXPECT_GT(result.solve_seconds, 0.0);
  EXPECT_GT(result.gram_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.dense_seconds,
                   result.hadamard_seconds + result.solve_seconds +
                       result.normalize_seconds + result.gram_seconds);
}

TEST(CpMu, RejectsNegativeData) {
  CooTensor t(shape_t{3, 3});
  t.push_back(std::array<index_t, 2>{0, 0}, -1.0);
  CpAlsOptions opt;
  opt.rank = 2;
  EXPECT_THROW(cp_mu(t, opt), error);
}

TEST(CpMu, FactorsNonnegativeAndFitImproves) {
  const auto t = generate_zipf(shape_t{25, 30, 35}, 2000, 1.2, 45);
  CpAlsOptions opt;
  opt.rank = 5;
  opt.max_iterations = 25;
  opt.tolerance = 0;
  const auto result = cp_mu(t, opt);
  for (mode_t m = 0; m < 3; ++m) {
    const auto& f = result.model.factors[m];
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t r = 0; r < f.cols(); ++r) EXPECT_GE(f(i, r), 0.0);
  }
  // Multiplicative updates are monotone in the objective: fit never drops.
  for (std::size_t i = 1; i < result.fits.size(); ++i)
    EXPECT_GE(result.fits[i], result.fits[i - 1] - 1e-8);
  EXPECT_GT(result.final_fit(), result.fits.front());
}

TEST(CpMu, RecoversNonnegativePlantedModel) {
  // Nonnegative planted data: generate_planted uses nonnegative factors.
  const auto planted = generate_planted(shape_t{12, 12, 12}, 2, 100000, 0.0, 47);
  // With nnz_target >= positions the sample is effectively dense.
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 150;
  opt.tolerance = 1e-9;
  const auto result = cp_mu(planted.tensor, opt);
  // Multiplicative updates converge slowly near all-positive (collinear)
  // planted factors; 0.8 after 150 iterations is the expected regime.
  EXPECT_GT(result.final_fit(), 0.8);
}

TEST(CpMu, WorksWithAllEngines) {
  const auto t = generate_uniform(shape_t{10, 12, 14, 16}, 500, 49);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  std::vector<real_t> reference;
  for (const auto& name : exact_engine_names()) {
    opt.engine = name;
    const auto r = cp_mu(t, opt);
    if (reference.empty()) {
      reference = r.fits;
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_NEAR(r.fits[i], reference[i], 1e-8) << name;
    }
  }
}

TEST(CpMu, HonoursEngineName) {
  const auto t = generate_uniform(shape_t{10, 12, 14}, 300, 51);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 2;
  opt.engine = "coo";
  EXPECT_EQ(cp_mu(t, opt).engine_name, "coo");
}

TEST(CpAls, CongruenceDiagnosticOnRecovery) {
  const auto planted = generate_planted_dense(shape_t{12, 14, 16}, 3, 0.0, 7);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 80;
  opt.tolerance = 1e-10;
  const auto result = cp_als_best_of(planted.tensor, opt, 3);
  KruskalTensor truth{planted.weights, planted.factors};
  EXPECT_GT(factor_congruence(truth, result.model), 0.95)
      << "fit was " << result.final_fit();
}

}  // namespace
}  // namespace mdcp
