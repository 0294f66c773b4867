// Cross-engine equivalence: every MTTKRP engine must agree with the
// brute-force reference on every mode, for tensors spanning orders 2..6,
// several sparsity structures, and several ranks. This is the core
// correctness property of the library.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <tuple>

#include "csf/csf_mttkrp.hpp"
#include "csf/csf_tensor.hpp"
#include "mttkrp/registry.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"

namespace mdcp {
namespace {

using mdcp::testing::clear_flush_bits_everywhere;
using mdcp::testing::exact_engine_names;
using mdcp::testing::has_subnormal;
using mdcp::testing::mxcsr_controls;
using mdcp::testing::random_factors;

// gtest parameter names allow only alphanumerics and underscores.
std::string label(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

enum class Structure { kUniform, kZipf, kClustered };

const char* structure_name(Structure s) {
  switch (s) {
    case Structure::kUniform: return "uniform";
    case Structure::kZipf: return "zipf";
    case Structure::kClustered: return "clustered";
  }
  return "?";
}

CooTensor make_structured(Structure s, const shape_t& shape, nnz_t nnz,
                          std::uint64_t seed) {
  switch (s) {
    case Structure::kUniform: return generate_uniform(shape, nnz, seed);
    case Structure::kZipf: return generate_zipf(shape, nnz, 1.2, seed);
    case Structure::kClustered:
      return generate_clustered(shape, nnz, {.clusters = 8, .spread = 3.0},
                                seed);
  }
  return CooTensor(shape);
}

using Param = std::tuple<std::string, mode_t /*order*/, Structure>;

class EngineEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(EngineEquivalence, MatchesReferenceEveryMode) {
  const auto [name, order, structure] = GetParam();
  shape_t shape;
  for (mode_t m = 0; m < order; ++m)
    shape.push_back(static_cast<index_t>(11 + 7 * m));
  const auto t = make_structured(structure, shape, 600, 1000 + order);
  const index_t rank = 6;
  const auto factors = random_factors(t, rank, 12345);
  const auto engine = make_engine(name, t, rank);

  Matrix got, want;
  for (mode_t m = 0; m < order; ++m) {
    engine->compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    ASSERT_EQ(got.rows(), t.dim(m));
    ASSERT_EQ(got.cols(), rank);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9)
        << engine->name() << " order " << order << " mode " << m;
  }
}

std::vector<Param> all_params() {
  std::vector<Param> p;
  for (const auto& name : exact_engine_names()) {
    for (mode_t order : {2, 3, 4, 5, 6}) {
      for (Structure s :
           {Structure::kUniform, Structure::kZipf, Structure::kClustered}) {
        p.emplace_back(name, order, s);
      }
    }
  }
  return p;
}

std::string param_label(const ::testing::TestParamInfo<Param>& info) {
  return label(std::get<0>(info.param)) + "_order" +
         std::to_string(std::get<1>(info.param)) + "_" +
         structure_name(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllEnginesOrdersStructures, EngineEquivalence,
                         ::testing::ValuesIn(all_params()), param_label);

class EngineRankSweep
    : public ::testing::TestWithParam<std::tuple<std::string, index_t>> {};

TEST_P(EngineRankSweep, MatchesReferenceAcrossRanks) {
  const auto [name, rank] = GetParam();
  const auto t = generate_zipf(shape_t{14, 18, 22, 26}, 700, 1.1, 777);
  const auto factors = random_factors(t, rank, 4242);
  const auto engine = make_engine(name, t, rank);
  Matrix got, want;
  for (mode_t m = 0; m < t.order(); ++m) {
    engine->compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9)
        << engine->name() << " rank " << rank << " mode " << m;
  }
}

std::string rank_label(
    const ::testing::TestParamInfo<std::tuple<std::string, index_t>>& info) {
  return label(std::get<0>(info.param)) + "_rank" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, EngineRankSweep,
    ::testing::Combine(::testing::ValuesIn(exact_engine_names()),
                       ::testing::Values(index_t{1}, index_t{2}, index_t{7},
                                         index_t{17})),
    rank_label);

TEST(EngineEdgeCases, SingleNonzero) {
  CooTensor t(shape_t{4, 5, 6});
  t.push_back(std::array<index_t, 3>{1, 2, 3}, 2.5);
  const auto factors = random_factors(t, 3, 5);
  for (const auto& name : exact_engine_names()) {
    const auto engine = make_engine(name, t, 3);
    Matrix got, want;
    for (mode_t m = 0; m < 3; ++m) {
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-12) << engine->name();
    }
  }
}

TEST(EngineEdgeCases, NegativeAndZeroValues) {
  CooTensor t(shape_t{3, 3, 3});
  t.push_back(std::array<index_t, 3>{0, 0, 0}, -1.5);
  t.push_back(std::array<index_t, 3>{1, 1, 1}, 0.0);
  t.push_back(std::array<index_t, 3>{2, 2, 2}, 3.0);
  const auto factors = random_factors(t, 4, 6);
  for (const auto& name : exact_engine_names()) {
    const auto engine = make_engine(name, t, 4);
    Matrix got, want;
    engine->compute(1, factors, got);
    mttkrp_reference(t, factors, 1, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-12) << engine->name();
  }
}

TEST(EngineEdgeCases, FactorValidationErrors) {
  const auto t = generate_uniform(shape_t{5, 6, 7}, 40, 8);
  auto factors = random_factors(t, 3, 7);
  const auto engine = make_engine("coo", t, 3);
  Matrix out;

  auto wrong_count = factors;
  wrong_count.pop_back();
  EXPECT_THROW(engine->compute(0, wrong_count, out), error);

  auto wrong_rows = factors;
  wrong_rows[1] = Matrix(99, 3);
  EXPECT_THROW(engine->compute(0, wrong_rows, out), error);

  auto wrong_rank = factors;
  wrong_rank[2] = Matrix(7, 5);
  EXPECT_THROW(engine->compute(0, wrong_rank, out), error);
}

TEST(EngineEdgeCases, AutoEngineIsExact) {
  const auto t = generate_clustered(shape_t{50, 60, 70, 80}, 1500,
                                    {.clusters = 6, .spread = 2.0}, 99);
  const auto factors = random_factors(t, 5, 31);
  const auto engine = make_engine("auto", t, 5);
  EXPECT_EQ(engine->name().rfind("auto:", 0), 0u) << engine->name();
  Matrix got, want;
  for (mode_t m = 0; m < t.order(); ++m) {
    engine->compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9) << "mode " << m;
  }
}

// Factor entries in [1e-80, 2e-80) on an order-5 tensor: every product of
// four of them is below DBL_MIN, so without flush-to-zero every MTTKRP entry
// would be a sum of subnormals. Under the kernels' FTZ|DAZ it is exactly 0.
// The workers' bits are cleared first, so each parallel body must set them
// itself; both schedules run, so both kinds of parallel body do.
TEST(FpEnv, EveryEngineFlushesSubnormalsWhateverTheCaller) {
#if !defined(__SSE2__)
  GTEST_SKIP() << "no MXCSR on this target";
#endif
  const auto t = generate_uniform(shape_t{600, 7, 8, 9, 520}, 400, 41);
  auto factors = random_factors(t, 5, 42);
  for (Matrix& f : factors)
    for (std::size_t e = 0; e < f.size(); ++e)
      f.data()[e] = (1 + f.data()[e]) * 1e-80;
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    clear_flush_bits_everywhere();
    for (const ScheduleMode sched :
         {ScheduleMode::kOwner, ScheduleMode::kPrivatized}) {
      KernelContext ctx;
      ctx.sched = sched;
      for (const auto& name : EngineRegistry::instance().names()) {
        const auto engine = make_engine(name, t, 5, ctx);
        for (mode_t m = 0; m < t.order(); ++m) {
          const std::string where =
              name + " mode " + std::to_string(m) + " threads=" +
              std::to_string(threads) +
              (sched == ScheduleMode::kOwner ? " owner" : " privatized");
          const unsigned plain_csr = mxcsr_controls();
          Matrix plain, flushed;
          engine->compute(m, factors, plain);
          EXPECT_EQ(mxcsr_controls(), plain_csr) << where;
          EXPECT_FALSE(has_subnormal(plain)) << where;
          {
            const FlushSubnormals caller;
            const unsigned flushed_csr = mxcsr_controls();
            engine->compute(m, factors, flushed);
            EXPECT_EQ(mxcsr_controls(), flushed_csr) << where;
          }
          ASSERT_EQ(plain.size(), flushed.size()) << where;
          EXPECT_EQ(std::memcmp(plain.data(), flushed.data(),
                                plain.size() * sizeof(real_t)),
                    0)
              << where;
        }
      }
    }
    // The standalone CSF root kernel has a parallel body of its own.
    const CsfTensor csf(t, CsfTensor::default_order(t, 2));
    Matrix root;
    csf_mttkrp_root(csf, factors, root);
    EXPECT_FALSE(has_subnormal(root)) << "csf_mttkrp_root threads=" << threads;
  }
  set_num_threads(saved_threads);
}

}  // namespace
}  // namespace mdcp
