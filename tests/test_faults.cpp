// Robustness tests: the fault-injection harness, the corrupt-input corpus,
// memory-budget degradation chains, and CP-ALS numerical recovery.
//
// The injected-fault tests (allocation failure, NaN poisoning, IO short
// reads) require the library to be built with -DMDCP_ENABLE_FAULTINJECT=ON;
// without it they GTEST_SKIP. The FaultPlan spec parser, the corrupt corpus,
// and the budget-degradation tests run in every configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>

#include "cpals/cpals.hpp"
#include "model/cost_model.hpp"
#include "model/tuner.hpp"
#include "mttkrp/registry.hpp"
#include "tensor/generator.hpp"
#include "tensor/tensor_io.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/workspace.hpp"

#ifndef MDCP_TEST_DATA_DIR
#define MDCP_TEST_DATA_DIR "tests/data"
#endif

namespace mdcp {
namespace {

std::string corrupt(const char* name) {
  return std::string(MDCP_TEST_DATA_DIR) + "/corrupt/" + name;
}

// ---------------------------------------------------------------------------
// FaultPlan spec grammar and deterministic triggers (compiled-in regardless
// of MDCP_ENABLE_FAULTINJECT — only the production gates fold away).
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesComposedClauses) {
  fault::FaultPlan p;
  p.parse_spec("alloc.nth=3;alloc.bytes=1048576;nan.nth=2;nan.limit=1;"
               "io.lines=10");
  EXPECT_EQ(p.config(fault::Site::kAlloc).nth, 3u);
  EXPECT_EQ(p.config(fault::Site::kAlloc).threshold, 1048576u);
  EXPECT_EQ(p.config(fault::Site::kNan).nth, 2u);
  EXPECT_EQ(p.config(fault::Site::kNan).limit, 1u);
  EXPECT_EQ(p.config(fault::Site::kIo).threshold, 10u);
  EXPECT_TRUE(p.armed());
  p.reset();
  EXPECT_FALSE(p.armed());
  EXPECT_EQ(p.config(fault::Site::kAlloc).nth, 0u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  fault::FaultPlan p;
  EXPECT_THROW(p.parse_spec("bogus"), error);
  EXPECT_THROW(p.parse_spec("zzz.nth=1"), error);
  EXPECT_THROW(p.parse_spec("alloc.wat=1"), error);
  EXPECT_THROW(p.parse_spec("alloc.nth=abc"), error);
  EXPECT_FALSE(p.armed());
}

TEST(FaultSpec, NthEveryLimitTriggerDeterministically) {
  fault::FaultPlan p;
  fault::SiteConfig cfg;
  cfg.nth = 3;
  cfg.every = 2;
  cfg.limit = 2;
  p.arm(fault::Site::kNan, cfg);
  // Visits 1..8: fires on 3 and 5, then the limit caps it.
  std::string fired;
  for (int v = 1; v <= 8; ++v)
    fired += p.should_inject(fault::Site::kNan) ? '1' : '0';
  EXPECT_EQ(fired, "00101000");
  EXPECT_EQ(p.visits(fault::Site::kNan), 8u);
  EXPECT_EQ(p.injected(fault::Site::kNan), 2u);
}

TEST(FaultSpec, ByteThresholdTrigger) {
  fault::FaultPlan p;
  fault::SiteConfig cfg;
  cfg.threshold = 1000;
  p.arm(fault::Site::kAlloc, cfg);
  EXPECT_FALSE(p.should_inject(fault::Site::kAlloc, 1000));
  EXPECT_TRUE(p.should_inject(fault::Site::kAlloc, 1001));
}

// ---------------------------------------------------------------------------
// Corrupt-input corpus: strict mode fails with the offending line number,
// non-strict skips the record and counts it.
// ---------------------------------------------------------------------------

struct CorruptCase {
  const char* file;
  std::size_t bad_line;       ///< expected parse_error::line in strict mode
  std::size_t good_records;   ///< surviving records in non-strict mode
};

class CorruptCorpus : public ::testing::TestWithParam<CorruptCase> {};

TEST_P(CorruptCorpus, StrictThrowsWithLineNumber) {
  const CorruptCase& c = GetParam();
  try {
    read_tns_file(corrupt(c.file));
    FAIL() << c.file << ": strict read of corrupt input did not throw";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.line, c.bad_line) << c.file << ": " << e.what();
  }
}

TEST_P(CorruptCorpus, NonStrictSkipsAndCounts) {
  const CorruptCase& c = GetParam();
  TnsReadOptions opts;
  opts.strict = false;
  TnsReadStats st;
  const CooTensor t = read_tns_file(corrupt(c.file), {}, opts, &st);
  EXPECT_EQ(st.records, c.good_records) << c.file;
  EXPECT_GE(st.skipped_malformed, 1u) << c.file;
  EXPECT_EQ(t.nnz(), c.good_records) << c.file;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptCorpus,
    ::testing::Values(CorruptCase{"nonnumeric_value.tns", 3, 2},
                      CorruptCase{"nonnumeric_index.tns", 2, 1},
                      CorruptCase{"fractional_index.tns", 3, 1},
                      CorruptCase{"index_overflow.tns", 2, 1},
                      CorruptCase{"negative_index.tns", 4, 2},
                      CorruptCase{"zero_index.tns", 2, 1},
                      CorruptCase{"wrong_arity.tns", 4, 3},
                      CorruptCase{"truncated_record.tns", 4, 2}),
    [](const ::testing::TestParamInfo<CorruptCase>& info) {
      std::string n = info.param.file;
      return n.substr(0, n.find('.'));
    });

TEST(CorruptCorpusSpecial, NoRecordsThrowsEvenNonStrict) {
  TnsReadOptions opts;
  opts.strict = false;
  EXPECT_THROW(read_tns_file(corrupt("no_records.tns"), {}, opts), parse_error);
}

// ---------------------------------------------------------------------------
// Memory-budget degradation chain (model-driven, no fault injection needed).
// ---------------------------------------------------------------------------

CooTensor degradation_tensor() {
  return generate_zipf({40, 50, 60}, 15000, 1.1, 7);
}

TEST(DegradationChain, UnbudgetedChainIsJustTheWinner) {
  const CooTensor t = degradation_tensor();
  AutoEngine engine;
  engine.prepare(t, 8);
  ASSERT_EQ(engine.chain().size(), 1u);
  EXPECT_TRUE(engine.chain()[0].engine.empty());  // the dtree winner
  EXPECT_TRUE(engine.degradation_events().empty());
  EXPECT_EQ(engine.chain_position(), 0u);
}

// Smallest predicted footprint across every dtree strategy: budgets below
// this force the chain onto the fixed fallbacks (the tuner would otherwise
// just pick a cheaper dtree strategy that fits, with no degradation).
std::size_t min_dtree_footprint(const TunerReport& report) {
  std::size_t fp = std::numeric_limits<std::size_t>::max();
  for (const RankedStrategy& rs : report.ranked)
    fp = std::min(fp, rs.prediction.total_memory_bytes());
  return fp;
}

TEST(DegradationChain, PicksFirstLevelTheModelSaysFits) {
  const CooTensor t = degradation_tensor();
  const index_t rank = 8;

  AutoEngine probe;
  probe.prepare(t, rank);
  const std::size_t dtree_floor = min_dtree_footprint(probe.report());
  ASSERT_GT(dtree_floor, 1u);

  for (const std::size_t budget :
       {dtree_floor - 1, dtree_floor / 4, std::size_t{1}}) {
    if (budget == 0) continue;
    KernelContext ctx;
    ctx.mem_budget = budget;
    AutoEngine engine(/*probed=*/false, ctx);
    try {
      engine.prepare(t, rank);
    } catch (const budget_error&) {
      // The whole chain was over budget AND the last resort still tripped
      // the arena — plausible only for the absurd 1-byte budget.
      EXPECT_EQ(budget, 1u);
      continue;
    }
    const auto& chain = engine.chain();
    ASSERT_GE(chain.size(), 2u) << "budget set but no fallbacks planned";
    const std::size_t pos = engine.chain_position();
    // Every skipped level was predicted over budget; the selected level is
    // the first that fits (or the terminal last resort).
    for (std::size_t i = 0; i < pos; ++i)
      EXPECT_FALSE(chain[i].fits_budget) << "level " << i << " skipped "
                                            "although the model said it fits";
    if (pos + 1 < chain.size())
      EXPECT_TRUE(chain[pos].fits_budget);
    EXPECT_GT(pos, 0u) << "budget " << budget << " below the cheapest dtree "
                       << "footprint but no fallback was taken";
    // Prepare-time skips are all recorded as model-predicted degradations.
    ASSERT_EQ(engine.degradation_events().size(), pos);
    for (const DegradationEvent& ev : engine.degradation_events()) {
      EXPECT_STREQ(ev.reason, "predicted-over-budget");
      EXPECT_TRUE(ev.at_prepare);
      EXPECT_EQ(ev.budget_bytes, budget);
    }
    // The degraded engine still answers MTTKRPs (the terminal level may
    // legitimately trip the arena at run time on the tiny budgets).
    Rng rng(3);
    std::vector<Matrix> factors;
    for (mode_t m = 0; m < t.order(); ++m)
      factors.push_back(Matrix::random_uniform(t.dim(m), rank, rng));
    Matrix out;
    try {
      engine.compute(0, factors, out);
      EXPECT_EQ(out.rows(), t.dim(0));
      EXPECT_EQ(out.cols(), rank);
    } catch (const budget_error&) {
      EXPECT_EQ(engine.chain_position(), chain.size() - 1)
          << "arena tripped but the chain was not exhausted";
    }
  }
}

// The planned fallback order is part of the robustness contract: the
// linearized engine sits directly behind the dtree winner, ahead of the
// trie fallback, and the terminal last resort stays "coo". The chain is
// exactly the registry entries that have a footprint predictor, in order.
TEST(DegradationChain, PlannedFallbacksFollowDocumentedOrder) {
  const CooTensor t = degradation_tensor();
  const index_t rank = 8;

  AutoEngine probe;
  probe.prepare(t, rank);
  const std::size_t dtree_floor = min_dtree_footprint(probe.report());
  ASSERT_GT(dtree_floor, 1u);

  KernelContext ctx;
  ctx.mem_budget = dtree_floor - 1;
  AutoEngine engine(/*probed=*/false, ctx);
  engine.prepare(t, rank);
  const auto& chain = engine.chain();
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_TRUE(chain[0].engine.empty());  // the dtree winner
  EXPECT_EQ(chain[1].engine, "alto");
  EXPECT_EQ(chain[2].engine, "csf");
  EXPECT_EQ(chain[3].engine, "coo");
  std::vector<std::string> planned, with_footprint;
  for (std::size_t i = 1; i < chain.size(); ++i)
    planned.push_back(chain[i].engine);
  for (const auto& entry : EngineRegistry::instance().entries())
    if (entry.footprint != nullptr) with_footprint.push_back(entry.name);
  EXPECT_EQ(planned, with_footprint);

  // On this tensor the budget that evicts the dtree winner still admits the
  // alto level, so the chain must stop there — and the degraded engine's
  // MTTKRP must agree with an unbudgeted reference engine.
  ASSERT_TRUE(chain[1].fits_budget)
      << "degradation tensor too large for the alto level; retune the test";
  EXPECT_EQ(engine.chain_position(), 1u);

  Rng rng(5);
  std::vector<Matrix> factors;
  for (mode_t m = 0; m < t.order(); ++m)
    factors.push_back(Matrix::random_uniform(t.dim(m), rank, rng));
  const auto reference = make_engine("coo", t, rank);
  for (mode_t m = 0; m < t.order(); ++m) {
    Matrix out, ref;
    engine.compute(m, factors, out);
    reference->compute(m, factors, ref);
    ASSERT_EQ(out.rows(), ref.rows());
    ASSERT_EQ(out.cols(), ref.cols());
    double scale = 1.0, err = 0.0;
    for (index_t i = 0; i < out.rows(); ++i) {
      for (index_t k = 0; k < out.cols(); ++k) {
        scale = std::max(scale, std::abs(static_cast<double>(ref(i, k))));
        err = std::max(err, std::abs(static_cast<double>(out(i, k)) -
                                     static_cast<double>(ref(i, k))));
      }
    }
    EXPECT_LT(err / scale, 1e-10) << "mode " << static_cast<int>(m);
  }
}

TEST(DegradationChain, BudgetedFitMatchesUnbudgeted) {
  const CooTensor t = degradation_tensor();

  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 6;
  opt.tolerance = 0;  // fixed iteration count for an apples-to-apples fit
  opt.seed = 42;
  opt.engine = "auto";
  const CpAlsResult base = cp_als(t, opt);
  EXPECT_EQ(base.kernel_stats.degradations, 0u);

  // A budget just below the cheapest dtree strategy's predicted footprint
  // forces the chain onto the fixed fallbacks while staying loose enough for
  // their (owner-pinnable) scratch to fit.
  AutoEngine probe;
  probe.prepare(t, opt.rank);
  const std::size_t dtree_floor = min_dtree_footprint(probe.report());
  ASSERT_GT(dtree_floor, 1u);

  opt.memory_budget_bytes = dtree_floor - 1;
  const CpAlsResult degraded = cp_als(t, opt);
  EXPECT_GT(degraded.kernel_stats.degradations, 0u);
  ASSERT_TRUE(std::isfinite(degraded.final_fit()));
  EXPECT_NEAR(static_cast<double>(degraded.final_fit()),
              static_cast<double>(base.final_fit()), 1e-10);
}

// ---------------------------------------------------------------------------
// Injected faults (require -DMDCP_ENABLE_FAULTINJECT=ON).
// ---------------------------------------------------------------------------

class InjectedFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::enabled())
      GTEST_SKIP() << "built without MDCP_ENABLE_FAULTINJECT";
    fault::FaultPlan::instance().reset();
  }
  void TearDown() override { fault::FaultPlan::instance().reset(); }
};

TEST_F(InjectedFaults, AllocFailureSweepNeverEscapesUntyped) {
  const CooTensor t = degradation_tensor();
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  opt.engine = "auto";

  int completed = 0;
  int typed_failures = 0;
  int runs_with_degradation = 0;
  for (int nth = 1; nth <= 10; ++nth) {
    // Fresh arena per run: the injection site lives in slab growth, and a
    // previously grown (shared) workspace would never grow again.
    Workspace ws;
    KernelContext ctx;
    ctx.workspace = &ws;
    // A generous budget keeps the full fallback chain planned, so an
    // injected bad_alloc has somewhere to degrade to.
    ctx.mem_budget = std::size_t{1} << 32;
    AutoEngine engine(/*probed=*/false, ctx);
    fault::FaultPlan::instance().parse_spec("alloc.nth=" +
                                            std::to_string(nth));
    try {
      const CpAlsResult r = cp_als(t, engine, opt);
      ++completed;
      EXPECT_TRUE(std::isfinite(r.final_fit())) << "alloc.nth=" << nth;
      if (r.kernel_stats.degradations > 0) ++runs_with_degradation;
    } catch (const mdcp::error&) {
      // Typed failure is an acceptable outcome (chain exhausted); anything
      // else — std::bad_alloc in particular — fails the test as an uncaught
      // exception.
      ++typed_failures;
    }
    fault::FaultPlan::instance().reset();
  }
  EXPECT_EQ(completed + typed_failures, 10);
  EXPECT_GT(completed, 0) << "no injection schedule survived";
  EXPECT_GT(runs_with_degradation, 0)
      << "no injected allocation failure was absorbed by the chain";
}

TEST_F(InjectedFaults, NanPoisonTriggersRecoveryAndConverges) {
  const CooTensor t = degradation_tensor();
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 10;
  opt.tolerance = 0;
  opt.engine = "coo";
  fault::FaultPlan::instance().parse_spec("nan.nth=2;nan.limit=1");

  const CpAlsResult r = cp_als(t, opt);
  EXPECT_GE(r.recoveries, 1);
  ASSERT_FALSE(r.fits.empty());
  EXPECT_TRUE(std::isfinite(r.final_fit()));
  // One poisoned kernel output must not wreck the decomposition: the
  // re-randomized factor re-converges to a sane fit.
  EXPECT_GT(r.final_fit(), 0);
}

TEST_F(InjectedFaults, RecoveryBudgetExhaustionIsTyped) {
  const CooTensor t = degradation_tensor();
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 20;
  opt.tolerance = 0;
  opt.engine = "coo";
  opt.max_recoveries = 2;
  // Poison every single kernel output: recovery cannot keep up.
  fault::FaultPlan::instance().parse_spec("nan.nth=1;nan.every=1");
  EXPECT_THROW(cp_als(t, opt), numeric_error);
}

TEST_F(InjectedFaults, IoShortReadTruncatesDeterministically) {
  fault::FaultPlan::instance().parse_spec("io.lines=2");
  std::istringstream in("1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n4 4 4 4.0\n");
  TnsReadStats st;
  const CooTensor t = read_tns(in, {}, {}, &st);
  EXPECT_TRUE(st.truncated);
  EXPECT_EQ(st.records, 2u);
  EXPECT_EQ(t.nnz(), 2u);
}

}  // namespace
}  // namespace mdcp
