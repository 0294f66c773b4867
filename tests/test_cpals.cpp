#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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
// returning solve_normal_equations → (the nonnegative projection) →
// column_normalize → gram → factor_updated, then the fit identity through
// fit_from_parts. Every call runs over all rows. With stop_iteration ≥ 0 it
// returns right after mode stop_mode of that iteration is updated, where a
// cancelled cp_als stops.
struct Replay {
  std::vector<Matrix> factors;
  std::vector<real_t> lambda;
  std::vector<real_t> fits;
};

Replay replay_cp_als(const CooTensor& t, MttkrpEngine& engine,
                     const CpAlsOptions& opt, int stop_iteration = -1,
                     mode_t stop_mode = 0) {
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
      if (opt.nonnegative) {
        real_t* data = r.factors[n].data();
        for (std::size_t e = 0; e < r.factors[n].size(); ++e)
          if (data[e] < 0) data[e] = 0;
      }
      r.lambda = column_normalize(r.factors[n]);
      // cp_als would re-randomize a zero column; the replay does not.
      EXPECT_EQ(std::count(r.lambda.begin(), r.lambda.end(), real_t{0}), 0);
      gram(r.factors[n], grams[n]);
      engine.factor_updated(n);
      if (it == stop_iteration && n == stop_mode) return r;
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

void expect_matches_replay(const CpAlsResult& result, const Replay& replay,
                           const std::string& where) {
  ASSERT_EQ(result.fits.size(), replay.fits.size()) << where;
  for (std::size_t i = 0; i < replay.fits.size(); ++i)
    EXPECT_EQ(std::memcmp(&result.fits[i], &replay.fits[i], sizeof(real_t)), 0)
        << where << " iteration " << i;
  ASSERT_EQ(result.model.weights.size(), replay.lambda.size()) << where;
  EXPECT_EQ(std::memcmp(result.model.weights.data(), replay.lambda.data(),
                        replay.lambda.size() * sizeof(real_t)),
            0)
      << where;
  ASSERT_EQ(result.model.factors.size(), replay.factors.size()) << where;
  for (std::size_t m = 0; m < replay.factors.size(); ++m) {
    const Matrix& a = result.model.factors[m];
    const Matrix& b = replay.factors[m];
    ASSERT_EQ(a.size(), b.size()) << where << " mode " << m;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)), 0)
        << where << " mode " << m;
  }
}

// Most slices of modes 1 and 2 are empty. Mode 1 spans more than four Gram
// blocks, and its nonzeros avoid the first and the last block entirely.
CooTensor sparse_slice_tensor() {
  CooTensor t(shape_t{60, 4 * kGramBlock + 300, 500, 33});
  Rng rng(71);
  for (int e = 0; e < 3000; ++e) {
    t.push_back(std::array<index_t, 4>{rng.next_index(60),
                                       kGramBlock + rng.next_index(2 * kGramBlock),
                                       5 * rng.next_index(60),
                                       rng.next_index(33)},
                rng.next_real() + 0.1);
  }
  t.coalesce();
  return t;
}

double empty_slice_share(const CooTensor& t, mode_t m) {
  std::vector<char> used(t.dim(m), 0);
  for (const index_t i : t.mode_indices(m)) used[i] = 1;
  return 1.0 - static_cast<double>(std::count(used.begin(), used.end(), 1)) /
                   static_cast<double>(t.dim(m));
}

TEST(CpAls, MatchesLayerReplayBitwise) {
  // cp_als solves straight into factors[n], skips the rows of empty slices
  // and fuses the division of the normalization into the Gram pass; the
  // replay does none of that. Fits, λ and factors must still agree bit for
  // bit, for every engine, with and without the nonnegative projection, at
  // 1 and 4 threads.
  const CooTensor t = sparse_slice_tensor();
  ASSERT_GT(t.dim(1), 3 * kGramBlock);
  ASSERT_GE(empty_slice_share(t, 1), 0.6);
  ASSERT_GE(empty_slice_share(t, 2), 0.6);
  CpAlsOptions opt;
  opt.rank = 7;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.seed = 123;
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const std::string& name : EngineRegistry::instance().names()) {
      for (const bool nonnegative : {false, true}) {
        opt.engine = name;
        opt.nonnegative = nonnegative;
        auto engine = make_engine(name, t, opt.rank);
        const CpAlsResult result = cp_als(t, *engine, opt);
        const Replay replay = replay_cp_als(t, *engine, opt);
        expect_matches_replay(result, replay,
                              name + (nonnegative ? " nonnegative" : "") +
                                  " threads=" + std::to_string(threads));
      }
    }
  }
  set_num_threads(saved_threads);
}

// Runs `inner` and raises `cancel` once factor `mode` has been updated in
// iteration `iteration`; cp_als sees the flag before the next mode.
class CancelAfterUpdate final : public MttkrpEngine {
 public:
  CancelAfterUpdate(std::unique_ptr<MttkrpEngine> inner, mode_t mode,
                    int iteration, std::atomic<bool>& cancel)
      : inner_(std::move(inner)),
        mode_(mode),
        iteration_(iteration),
        cancel_(cancel) {}

  void factor_updated(mode_t mode) override {
    inner_->factor_updated(mode);
    if (mode == mode_ && updates_++ == iteration_) cancel_.store(true);
  }
  void invalidate_all() override { inner_->invalidate_all(); }
  std::string name() const override { return inner_->name(); }

 protected:
  void do_prepare(index_t rank) override { inner_->prepare(tensor(), rank); }
  void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                  Matrix& out) override {
    inner_->compute(mode, factors, out);
  }

 private:
  std::unique_ptr<MttkrpEngine> inner_;
  mode_t mode_;
  int iteration_;
  std::atomic<bool>& cancel_;
  int updates_ = 0;
};

TEST(CpAls, CancelledRunMatchesReplayStoppedThere) {
  // Cancelled after mode 1 of iteration 0 (modes 0–1 solved over every row,
  // modes 2–3 still the random init) and of iteration 1 (rows of empty
  // slices skipped): the returned factors and λ are the replay's state at
  // the same point.
  const CooTensor t = sparse_slice_tensor();
  CpAlsOptions opt;
  opt.rank = 7;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.seed = 123;
  for (const int iteration : {0, 1}) {
    std::atomic<bool> cancel{false};
    opt.cancel = &cancel;
    CancelAfterUpdate engine(make_engine("dtree-bdt"), 1, iteration, cancel);
    const CpAlsResult result = cp_als(t, engine, opt);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.iterations, iteration);
    auto replay_engine = make_engine("dtree-bdt", t, opt.rank);
    const Replay replay = replay_cp_als(t, *replay_engine, opt, iteration, 1);
    expect_matches_replay(result, replay,
                          "cancelled in iteration " + std::to_string(iteration));
  }
}

// One cp_mu run rebuilt from the public layer calls, in cp_mu's order:
// uniform + 0.1 init, then per mode compute → hadamard_inplace →
// multiply_into → the elementwise multiplicative update → gram →
// factor_updated, then the fit identity over every row with λ ≡ 1, and at
// the end each factor's column norms multiplied into the weights. Stops
// where replay_cp_als does.
Replay replay_cp_mu(const CooTensor& t, MttkrpEngine& engine,
                    const CpAlsOptions& opt, int stop_iteration = -1,
                    mode_t stop_mode = 0) {
  const mode_t order = t.order();
  const index_t rank = opt.rank;
  Replay r;
  r.factors = mdcp::testing::random_factors(t, rank, opt.seed);
  for (Matrix& f : r.factors)
    for (std::size_t e = 0; e < f.size(); ++e) f.data()[e] += real_t{0.1};
  std::vector<Matrix> grams(order);
  for (mode_t m = 0; m < order; ++m) gram(r.factors[m], grams[m]);
  engine.invalidate_all();
  if (!engine.prepared()) engine.prepare(t, rank);
  const real_t x_norm = t.norm();
  const auto into_weights = [&] {
    r.lambda.assign(rank, 1);
    for (Matrix& f : r.factors) {
      const std::vector<real_t> norms = column_normalize(f);
      for (index_t q = 0; q < rank; ++q) r.lambda[q] *= norms[q];
    }
    return r;
  };
  Matrix out, h, denom;
  for (int it = 0; it < opt.max_iterations; ++it) {
    for (mode_t n = 0; n < order; ++n) {
      engine.compute(n, r.factors, out);
      h.resize(rank, rank, 1);
      for (mode_t i = 0; i < order; ++i)
        if (i != n) hadamard_inplace(h, grams[i]);
      Matrix& u = r.factors[n];
      multiply_into(u, h, denom);
      for (index_t i = 0; i < u.rows(); ++i)
        for (index_t q = 0; q < rank; ++q)
          u(i, q) *= out(i, q) / (denom(i, q) + real_t{1e-12});
      gram(u, grams[n]);
      engine.factor_updated(n);
      if (it == stop_iteration && n == stop_mode) return into_weights();
    }
    real_t inner = 0;
    const Matrix& u = r.factors[order - 1];
    for (index_t i = 0; i < u.rows(); ++i)
      for (index_t q = 0; q < rank; ++q) inner += u(i, q) * out(i, q);
    Matrix acc(rank, rank, 1);
    for (mode_t i = 0; i < order; ++i) hadamard_inplace(acc, grams[i]);
    real_t m_norm_sq = 0;
    for (index_t p = 0; p < rank; ++p)
      for (index_t q = 0; q < rank; ++q) m_norm_sq += acc(p, q);
    r.fits.push_back(fit_from_parts(
        x_norm, inner, std::sqrt(std::max<real_t>(m_norm_sq, 0))));
  }
  return into_weights();
}

TEST(CpMu, MatchesLayerReplayBitwise) {
  // cp_mu runs on the shared sweep driver, whose fit walks only the rows of
  // occupied slices and weighs by λ; the replay walks every row unweighted.
  // Fits, weights and factors must still agree bit for bit, for every
  // engine, at 1 and 4 threads.
  const CooTensor t = sparse_slice_tensor();
  CpAlsOptions opt;
  opt.rank = 7;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.seed = 123;
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const std::string& name : EngineRegistry::instance().names()) {
      opt.engine = name;
      auto engine = make_engine(name, t, opt.rank);
      const CpAlsResult result = cp_mu(t, *engine, opt);
      const Replay replay = replay_cp_mu(t, *engine, opt);
      expect_matches_replay(result, replay,
                            name + " threads=" + std::to_string(threads));
    }
  }
  set_num_threads(saved_threads);
}

TEST(CpMu, CancelledRunMatchesReplayStoppedThere) {
  // A cancelled cp_mu still folds its factors' column norms into the
  // weights, from the state after the last completed update.
  const CooTensor t = sparse_slice_tensor();
  CpAlsOptions opt;
  opt.rank = 7;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.seed = 123;
  for (const int iteration : {0, 1}) {
    std::atomic<bool> cancel{false};
    opt.cancel = &cancel;
    CancelAfterUpdate engine(make_engine("dtree-bdt"), 1, iteration, cancel);
    const CpAlsResult result = cp_mu(t, engine, opt);
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.iterations, iteration);
    auto replay_engine = make_engine("dtree-bdt", t, opt.rank);
    const Replay replay = replay_cp_mu(t, *replay_engine, opt, iteration, 1);
    expect_matches_replay(
        result, replay, "cancelled in iteration " + std::to_string(iteration));
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
