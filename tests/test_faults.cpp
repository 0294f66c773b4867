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

#include "cpals/cp_mu.hpp"
#include "cpals/cpals.hpp"
#include "model/cost_model.hpp"
#include "model/tuner.hpp"
#include "mttkrp/registry.hpp"
#include "tensor/generator.hpp"
#include "tensor/tensor_io.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/workspace.hpp"

#ifndef MDCP_TEST_DATA_DIR
#define MDCP_TEST_DATA_DIR "tests/data"
#endif

namespace mdcp {
namespace {

using mdcp::testing::random_factors;

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
                      CorruptCase{"truncated_record.tns", 4, 2},
                      CorruptCase{"too_many_modes.tns", 3, 2}),
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
    AutoEngine engine(ctx);
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
    const auto factors = random_factors(t, rank, 3);
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
// linearized engine sits directly behind the dtree winner, and the terminal
// last resort is "coo". The chain is exactly the registry entries that have
// a footprint predictor, in order.
TEST(DegradationChain, PlannedFallbacksFollowDocumentedOrder) {
  const CooTensor t = degradation_tensor();
  const index_t rank = 8;

  AutoEngine probe;
  probe.prepare(t, rank);
  const std::size_t dtree_floor = min_dtree_footprint(probe.report());
  ASSERT_GT(dtree_floor, 1u);

  KernelContext ctx;
  ctx.mem_budget = dtree_floor - 1;
  AutoEngine engine(ctx);
  engine.prepare(t, rank);
  const auto& chain = engine.chain();
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_TRUE(chain[0].engine.empty());  // the dtree winner
  EXPECT_EQ(chain[1].engine, "alto");
  EXPECT_EQ(chain[2].engine, "coo");
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

  const auto factors = random_factors(t, rank, 5);
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

// A hub-skewed 4-mode tensor whose alto partitions span wide row windows:
// alto's arena is several times its resident bytes, and several times coo's
// whole footprint.
CooTensor wide_window_tensor() {
  return generate_zipf({200, 4000, 20000, 6000}, 30000, 1.1, 2);
}

// Every level the chain can fall back to must fit where the model says it
// fits: its predicted footprint (what the chain plans with, the privatized
// envelope included) bounds the resident bytes plus the arena peak of two
// full sweeps, under either schedule, at 1 and 4 threads, and at a rank
// below its padded width as well as at one equal to it.
TEST(DegradationChain, FallbackFootprintsBoundWhatTheEnginesUse) {
  const CooTensor tensors[] = {
      wide_window_tensor(),
      generate_clustered({2000, 1500, 1000, 500, 200}, 40000, {256, 6.0}, 3)};
  for (const CooTensor& t : tensors) {
    ProjectionCounter counter(t);
    for (const index_t rank : {10, 16}) {
      const auto factors = random_factors(t, rank, 11);
      for (const int threads : {1, 4}) {
        for (const ScheduleMode sched :
             {ScheduleMode::kAuto, ScheduleMode::kOwner}) {
          for (const auto& entry : EngineRegistry::instance().entries()) {
            if (entry.footprint == nullptr) continue;
            SCOPED_TRACE(::testing::Message()
                         << entry.name << " order=" << t.order()
                         << " rank=" << rank << " threads=" << threads
                         << " sched=" << static_cast<int>(sched));
            const std::size_t predicted =
                entry.footprint(t, rank, &counter, threads) +
                privatized_envelope_bytes(t, rank, threads, sched);
            Workspace ws;
            KernelContext ctx;
            ctx.workspace = &ws;
            ctx.threads = threads;
            ctx.sched = sched;
            auto engine = make_engine(entry.name, t, rank, ctx);
            Matrix out;
            for (int sweep = 0; sweep < 2; ++sweep)
              for (mode_t m = 0; m < t.order(); ++m) {
                engine->compute(m, factors, out);
                engine->factor_updated(m);
              }
            EXPECT_GE(predicted,
                      engine->peak_memory_bytes() + ws.peak_bytes())
                << "resident " << engine->peak_memory_bytes()
                << " B, arena " << ws.peak_bytes() << " B";
          }
        }
      }
    }
  }
}

// Budget between coo's footprint and alto's, above the dtree winner's: the
// winner runs, and alto is planned over budget.
std::size_t between_coo_and_alto_budget(const CooTensor& t, index_t rank) {
  ProjectionCounter counter(t);
  std::size_t alto = 0, coo = 0;
  for (const auto& entry : EngineRegistry::instance().entries()) {
    if (entry.name == "alto") alto = entry.footprint(t, rank, &counter, 1);
    if (entry.name == "coo") coo = entry.footprint(t, rank, &counter, 1);
  }
  EXPECT_LT(coo, alto);
  return (coo + alto) / 2;
}

// One rule moves along the chain: a level that fails at run time hands over
// to the next level the model predicts in budget, exactly as prepare()
// skips levels, rather than to whatever level comes next.
TEST(DegradationChain, RunTimeFallbackSkipsLevelsPredictedOverBudget) {
  const CooTensor t = wide_window_tensor();
  const index_t rank = 16;
  Workspace ws;
  KernelContext ctx;
  ctx.workspace = &ws;
  ctx.threads = 1;
  ctx.mem_budget = between_coo_and_alto_budget(t, rank);
  AutoEngine engine(ctx);
  engine.prepare(t, rank);
  const auto& chain = engine.chain();
  ASSERT_EQ(chain.size(), 3u);
  ASSERT_EQ(engine.chain_position(), 0u)
      << "the budget no longer admits the dtree winner; retune the test";
  ASSERT_FALSE(chain[1].fits_budget);
  ASSERT_TRUE(chain[2].fits_budget);

  // Take the arena away from the running winner: its next compute() trips.
  ws.release();
  ws.set_budget_bytes(1);
  const auto factors = random_factors(t, rank, 5);
  Matrix out, ref;
  engine.compute(1, factors, out);
  EXPECT_EQ(engine.chain_position(), 2u);
  EXPECT_EQ(engine.name(), "coo");
  const auto& events = engine.degradation_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].reason, "budget-exceeded");
  EXPECT_EQ(events[0].to, "auto:alto");
  EXPECT_STREQ(events[1].reason, "predicted-over-budget");
  EXPECT_EQ(events[1].from, "auto:alto");
  EXPECT_EQ(events[1].to, "auto:coo");
  for (const DegradationEvent& ev : events) EXPECT_FALSE(ev.at_prepare);

  const auto reference = make_engine("coo", t, rank);
  reference->compute(1, factors, ref);
  ASSERT_EQ(out.rows(), ref.rows());
  ASSERT_EQ(out.cols(), ref.cols());
  for (index_t i = 0; i < out.rows(); ++i)
    for (index_t k = 0; k < out.cols(); ++k)
      ASSERT_EQ(out(i, k), ref(i, k)) << "row " << i << " col " << k;
}

// The result names the engine that ran the sweeps, also when the chain
// moved on during the run, not the level that was active after prepare().
TEST(DegradationChain, ResultNamesTheEngineThatRan) {
  const CooTensor t = wide_window_tensor();
  CpAlsOptions opt;
  opt.rank = 16;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  opt.seed = 42;
  Workspace ws;
  KernelContext ctx;
  ctx.workspace = &ws;
  ctx.threads = 1;
  ctx.mem_budget = between_coo_and_alto_budget(t, opt.rank);
  AutoEngine engine(ctx);
  engine.prepare(t, opt.rank);
  ASSERT_EQ(engine.chain_position(), 0u);
  ws.release();
  ws.set_budget_bytes(1);
  const CpAlsResult result = cp_als(t, engine, opt);
  EXPECT_GT(result.kernel_stats.degradations, 0u);
  EXPECT_EQ(result.engine_name, "coo");
}

// Five fixed rank-16 iterations on the wide-window tensor, and the
// unbudgeted auto run every budgeted run of them must match.
CpAlsOptions wide_window_options() {
  CpAlsOptions opt;
  opt.rank = 16;
  opt.max_iterations = 5;
  opt.tolerance = 0;
  opt.seed = 42;
  opt.engine = "auto";
  return opt;
}

const CpAlsResult& wide_window_unbudgeted() {
  static const CpAlsResult base =
      cp_als(wide_window_tensor(), wide_window_options());
  return base;
}

// A 2 MiB budget on the wide-window tensor: the dtree strategies and alto
// are all predicted over it, so the run is coo's from the start, inside the
// budget, with the unbudgeted run's fit.
TEST(DegradationChain, TightBudgetRunsCooWithinIt) {
  const CooTensor t = wide_window_tensor();
  CpAlsOptions opt = wide_window_options();
  const CpAlsResult& base = wide_window_unbudgeted();
  opt.memory_budget_bytes = std::size_t{2} << 20;
  const CpAlsResult budgeted = cp_als(t, opt);
  EXPECT_EQ(budgeted.engine_name, "coo");
  EXPECT_LE(budgeted.engine_peak_memory_bytes, opt.memory_budget_bytes);
  EXPECT_NEAR(static_cast<double>(budgeted.final_fit()),
              static_cast<double>(base.final_fit()), 1e-10);
}

// A 6 MiB budget on the wide-window tensor at rank 16: the fastest dtree
// strategy holds 6.8 MiB of symbolic structure and cached values, so the run
// must take a cheaper level and stay inside the budget, with the unbudgeted
// run's fit.
TEST(DegradationChain, BudgetBelowTheWinnersPeakIsKept) {
  const CooTensor t = wide_window_tensor();
  CpAlsOptions opt = wide_window_options();
  const CpAlsResult& base = wide_window_unbudgeted();
  opt.memory_budget_bytes = std::size_t{6} << 20;
  ASSERT_GT(base.engine_peak_memory_bytes, opt.memory_budget_bytes)
      << "the unbudgeted winner fits the budget; retune the test";
  const CpAlsResult budgeted = cp_als(t, opt);
  EXPECT_LE(budgeted.engine_peak_memory_bytes, opt.memory_budget_bytes)
      << budgeted.engine_name << " ran over the budget";
  EXPECT_NEAR(static_cast<double>(budgeted.final_fit()),
              static_cast<double>(base.final_fit()), 1e-10);
}

// A level that outgrows the budget at run time hands over to the next one
// ("budget-exceeded") instead of running on over it. Here the chain was
// planned at a rank hint of 8, so every level holds more at rank 16 than
// the model predicted for it.
TEST(DegradationChain, LevelOverBudgetAtRunTimeHandsOver) {
  const CooTensor t = wide_window_tensor();
  CpAlsOptions opt = wide_window_options();
  const CpAlsResult& base = wide_window_unbudgeted();

  KernelContext ctx;
  ctx.threads = 1;
  ctx.mem_budget = std::size_t{6} << 20;
  AutoEngine engine(ctx);
  engine.prepare(t, 8);
  ASSERT_EQ(engine.chain_position(), 0u)
      << "the budget no longer admits the rank-8 winner; retune the test";
  const CpAlsResult result = cp_als(t, engine, opt);
  const auto& events = engine.degradation_events();
  ASSERT_FALSE(events.empty()) << "the winner ran over the budget silently";
  EXPECT_STREQ(events[0].reason, "budget-exceeded");
  EXPECT_FALSE(events[0].at_prepare);
  EXPECT_EQ(events[0].budget_bytes, ctx.mem_budget);
  if (engine.chain_position() + 1 < engine.chain().size())
    EXPECT_LE(engine.memory_bytes(), ctx.mem_budget);
  EXPECT_NEAR(static_cast<double>(result.final_fit()),
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
    AutoEngine engine(ctx);
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
  for (const bool mu : {false, true}) {
    fault::FaultPlan::instance().parse_spec("nan.nth=2;nan.limit=1");
    const CpAlsResult r = mu ? cp_mu(t, opt) : cp_als(t, opt);
    EXPECT_GE(r.recoveries, 1) << (mu ? "mu" : "als");
    ASSERT_FALSE(r.fits.empty());
    EXPECT_TRUE(std::isfinite(r.final_fit())) << (mu ? "mu" : "als");
    // One poisoned kernel output must not wreck the decomposition: the
    // re-randomized factor re-converges to a sane fit.
    EXPECT_GT(r.final_fit(), 0) << (mu ? "mu" : "als");
  }
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
