// Bitwise determinism across thread counts: all parallel kernels accumulate
// per output element in a fixed order, so results must be *identical* (not
// just close) for any number of threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cpals/cpals.hpp"
#include "la/blas.hpp"
#include "mttkrp/registry.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace mdcp {
namespace {

using mdcp::testing::clear_flush_bits_everywhere;
using mdcp::testing::has_subnormal;
using mdcp::testing::random_factors;

class ThreadRestore {
 public:
  ~ThreadRestore() { set_num_threads(1); }
};

// The suites below enumerate EngineRegistry::names(), so an engine that
// silently unregisters would drop out of coverage without failing anything.
// Pin the engines whose determinism story these tests were written to lock
// down — in particular the linearized "alto" engine, whose partition-window
// merge order is the whole reason it can promise bitwise owner-mode results.
TEST(Determinism, RegistryListsBitwiseCriticalEngines) {
  const auto names = EngineRegistry::instance().names();
  for (const char* expected :
       {"alto", "coo", "csf", "dtree-flat", "dtree-3lvl", "dtree-bdt",
        "auto"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "engine \"" << expected
        << "\" missing from the registry-driven determinism matrix";
  }
}

TEST(Determinism, MttkrpBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{30, 35, 40, 45}, 3000, 1.1, 61);
  const auto factors = random_factors(t, 8, 62);

  // Every registered engine must produce bit-identical output regardless of
  // thread count ("auto" picks from the analytic model only).
  for (const auto& name : EngineRegistry::instance().names()) {
    std::vector<Matrix> results;
    for (int threads : {1, 2, 4}) {
      set_num_threads(threads);
      const auto engine = make_engine(name, t, 8);
      Matrix out;
      engine->compute(2, factors, out);
      results.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0] == results[i], true)
          << name << ": thread count changed the bits";
    }
  }
}

// Forced owner-computes keeps the cross-thread-count bitwise guarantee even
// on tensors where the auto heuristic would choose privatized tiles.
TEST(Determinism, ForcedOwnerBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{40, 36, 32}, 4000, 1.3, 71);
  const auto factors = random_factors(t, 8, 72);
  for (const auto& name : EngineRegistry::instance().names()) {
    KernelContext ctx;
    ctx.sched = ScheduleMode::kOwner;
    std::vector<Matrix> results;
    for (int threads : {1, 2, 4}) {
      set_num_threads(threads);
      const auto engine = make_engine(name, t, 8, ctx);
      Matrix out;
      engine->compute(1, factors, out);
      results.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0] == results[i], true)
          << name << ": forced owner changed bits across thread counts";
    }
  }
}

// The privatized schedule combines per-thread partials in fixed thread
// order, so at a *fixed* thread count repeated runs must be bitwise
// identical; across different thread counts the accumulation order changes
// and only closeness is guaranteed.
TEST(Determinism, PrivatizedBitwiseAtFixedThreadCount) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{40, 36, 32, 28}, 5000, 1.2, 73);
  const auto factors = random_factors(t, 8, 74);
  KernelContext ctx;
  ctx.sched = ScheduleMode::kPrivatized;
  for (const auto& name : EngineRegistry::instance().names()) {
    set_num_threads(4);
    std::vector<Matrix> runs;
    for (int rep = 0; rep < 3; ++rep) {
      const auto engine = make_engine(name, t, 8, ctx);
      Matrix out;
      engine->compute(2, factors, out);
      runs.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[0] == runs[i], true)
          << name << ": privatized run-to-run bits differ at 4 threads";
    }
  }
}

TEST(Determinism, PrivatizedDriftAcrossThreadCountsWithinTolerance) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{40, 36, 32, 28}, 5000, 1.2, 75);
  const auto factors = random_factors(t, 8, 76);
  KernelContext ctx;
  ctx.sched = ScheduleMode::kPrivatized;
  for (const auto& name : EngineRegistry::instance().names()) {
    set_num_threads(1);
    const auto e1 = make_engine(name, t, 8, ctx);
    Matrix out1;
    e1->compute(0, factors, out1);
    set_num_threads(4);
    const auto e4 = make_engine(name, t, 8, ctx);
    Matrix out4;
    e4->compute(0, factors, out4);
    ASSERT_EQ(out1.rows(), out4.rows());
    ASSERT_EQ(out1.cols(), out4.cols());
    double scale = 1.0, err = 0.0;
    for (index_t i = 0; i < out1.rows(); ++i) {
      for (index_t k = 0; k < out1.cols(); ++k) {
        scale = std::max(scale, std::abs(static_cast<double>(out1(i, k))));
        err = std::max(err, std::abs(static_cast<double>(out1(i, k)) -
                                     static_cast<double>(out4(i, k))));
      }
    }
    EXPECT_LT(err / scale, 1e-12)
        << name << ": 1-vs-4-thread privatized drift too large";
  }
}

TEST(Determinism, GramBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  Rng rng(63);
  const Matrix a = Matrix::random_normal(997, 16, rng);
  set_num_threads(1);
  const Matrix g1 = gram(a);
  set_num_threads(4);
  const Matrix g4 = gram(a);
  EXPECT_TRUE(g1 == g4);
}

TEST(Determinism, CpAlsBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  const auto t = generate_uniform(shape_t{18, 20, 22}, 900, 67);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.engine = "dtree-bdt";

  set_num_threads(1);
  const auto r1 = cp_als(t, opt);
  set_num_threads(4);
  const auto r4 = cp_als(t, opt);
  ASSERT_EQ(r1.fits.size(), r4.fits.size());
  for (std::size_t i = 0; i < r1.fits.size(); ++i)
    EXPECT_EQ(r1.fits[i], r4.fits[i]) << "iteration " << i;
  for (mode_t m = 0; m < 3; ++m)
    EXPECT_TRUE(r1.model.factors[m] == r4.model.factors[m]) << "mode " << m;
}

// A clustered order-5 tensor with as many components as well-separated
// clusters: each component settles on one cluster, and its entries on rows
// outside that cluster shrink by orders of magnitude per sweep, down to
// about 1e-300 within ten sweeps. Products of such entries fall below
// DBL_MIN, so a parallel body that runs without FlushSubnormals makes
// subnormals on worker threads where the one-thread run makes zeros. The
// workers' MXCSR bits are cleared before each run (see
// clear_flush_bits_everywhere), as on threads created outside any kernel.
TEST(Determinism, CpAlsBitwiseAcrossThreadCountsOnUnderflowingFactors) {
  ThreadRestore restore;
  const auto t = generate_clustered(shape_t{400, 320, 240, 160, 80}, 3000,
                                    {.clusters = 8, .spread = 2.0}, 91);
  CpAlsOptions opt;
  opt.rank = 8;
  opt.max_iterations = 10;
  opt.tolerance = 0;
  const auto run = [&](const std::string& engine, int threads) {
    opt.engine = engine;
    set_num_threads(threads);
    clear_flush_bits_everywhere();
    return cp_als(t, opt);
  };

  const std::vector<Matrix> iterates = run("dtree-bdt", 1).model.factors;
  real_t smallest = 1;
  for (const Matrix& f : iterates)
    for (std::size_t e = 0; e < f.size(); ++e)
      if (f.data()[e] != 0)
        smallest = std::min(smallest, std::abs(f.data()[e]));
  ASSERT_LT(smallest, 1e-290) << "the factors no longer underflow";

  for (const auto& name : EngineRegistry::instance().names()) {
    // Every MTTKRP on the iterates, owner-computes so that the thread count
    // may not change a bit.
    KernelContext ctx;
    ctx.sched = ScheduleMode::kOwner;
    for (mode_t m = 0; m < t.order(); ++m) {
      std::vector<Matrix> outs;
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        clear_flush_bits_everywhere();
        Matrix out;
        make_engine(name, t, opt.rank, ctx)->compute(m, iterates, out);
        EXPECT_FALSE(has_subnormal(out))
            << name << " mode " << m << " threads=" << threads;
        outs.push_back(std::move(out));
      }
      EXPECT_TRUE(outs[0] == outs[1]) << name << " mode " << m;
      // Privatized partials reassociate across thread counts, so that
      // schedule is held only to making no subnormal.
      KernelContext split;
      split.sched = ScheduleMode::kPrivatized;
      Matrix out;
      make_engine(name, t, opt.rank, split)->compute(m, iterates, out);
      EXPECT_FALSE(has_subnormal(out))
          << name << " mode " << m << " privatized";
    }

    // Whole runs from the same start.
    const CpAlsResult r1 = run(name, 1);
    const CpAlsResult r4 = run(name, 4);
    ASSERT_EQ(r1.fits.size(), r4.fits.size()) << name;
    for (std::size_t i = 0; i < r1.fits.size(); ++i)
      EXPECT_EQ(r1.fits[i], r4.fits[i]) << name << " iteration " << i;
    for (mode_t m = 0; m < t.order(); ++m)
      EXPECT_TRUE(r1.model.factors[m] == r4.model.factors[m])
          << name << " mode " << m;
  }
}

}  // namespace
}  // namespace mdcp
