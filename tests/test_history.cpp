// Tests for the cross-run history layer: golden-fixture ingest (including
// the skip counters for truncated / future-version / incomplete reports),
// crash-safe report promotion, a real cp_als round-trip through
// parse_report_file, the tuner's history overlay (the fastest candidate
// with a run of this exact tensor, rank, thread count, build and machine),
// and robust-z drift banding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cpals/cp_mu.hpp"
#include "cpals/cpals.hpp"
#include "model/tuner.hpp"
#include "obs/history.hpp"
#include "obs/report.hpp"
#include "tensor/generator.hpp"
#include "util/parallel.hpp"

namespace mdcp {
namespace {

std::string fixture_dir() {
  return std::string(MDCP_TEST_DATA_DIR) + "/history";
}

TEST(HistoryIngest, FixtureDirCountsEverySkipKind) {
  obs::HistoryStore store;
  const obs::HistoryIngestStats stats = store.ingest_dir(fixture_dir());
  EXPECT_EQ(stats.files_scanned, 5u);
  EXPECT_EQ(stats.files_ingested, 2u);
  EXPECT_EQ(stats.files_unparseable, 1u);
  EXPECT_EQ(stats.files_unknown_version, 1u);
  EXPECT_EQ(stats.files_incomplete, 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(HistoryIngest, MissingDirectoryIngestsNothing) {
  obs::HistoryStore store;
  const auto stats = store.ingest_dir(fixture_dir() + "/does-not-exist");
  EXPECT_EQ(stats.files_scanned, 0u);
  EXPECT_TRUE(store.empty());
}

TEST(HistoryIngest, OrphanedTmpReportsAreCountedNotIngested) {
  // A `<path>.tmp` leftover is a run that died before RunReporter::close()
  // (and before any crash handler promoted it) — evidence of a crash the
  // skip counters must surface instead of silently ignoring.
  const std::string dir = ::testing::TempDir() + "/mdcp_orphan_tmp";
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir + "/run-123.jsonl.tmp");
    os << "{\"type\":\"header\",\"schema\":\"mdcp-run-report/1\"}\n";
  }
  obs::HistoryStore store;
  const auto stats = store.ingest_dir(dir);
  EXPECT_EQ(stats.files_orphaned_tmp, 1u);
  EXPECT_EQ(stats.files_ingested, 0u);
  EXPECT_EQ(stats.files_scanned, 0u);  // never entered the .jsonl scan
  EXPECT_TRUE(store.empty());
  std::filesystem::remove_all(dir);
}

TEST(HistoryIngest, GoldenV2FieldsRoundTrip) {
  obs::HistoryIngestStats stats;
  const auto obs =
      obs::HistoryStore::parse_report_file(fixture_dir() + "/golden_v2.jsonl",
                                           &stats);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->fingerprint, 0xdeadbeefULL);
  EXPECT_EQ(obs->engine_label, "auto:greedy");
  EXPECT_EQ(obs->strategy, "greedy");
  EXPECT_EQ(obs->rank, 8u);
  EXPECT_EQ(obs->threads, 4);
  EXPECT_EQ(obs->iterations, 4);
  // Summary totals are normalized per iteration (0.4 s over 4 sweeps).
  EXPECT_DOUBLE_EQ(obs->seconds_per_iteration, 0.1);
  ASSERT_EQ(obs->mode_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(obs->mode_seconds[0], 0.05);
  EXPECT_DOUBLE_EQ(obs->mode_seconds[2], 0.02);
  // predicted 0.09 vs measured 0.1 per iteration.
  EXPECT_NEAR(obs->time_error_ratio, 0.9, 1e-12);
  EXPECT_EQ(obs->plan_source, "model");
  EXPECT_DOUBLE_EQ(obs->final_fit, 0.125);
  EXPECT_EQ(stats.files_ingested, 1u);
}

TEST(HistoryIngest, PreVersionedReportParsesAsVersionOne) {
  const auto obs =
      obs::HistoryStore::parse_report_file(fixture_dir() + "/golden_v1.jsonl");
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->engine_label, "csf");
  EXPECT_EQ(obs->strategy, "csf");  // fixed engines keep their name
  EXPECT_EQ(obs->rank, 0u);         // v1 reports predate the rank field
  EXPECT_DOUBLE_EQ(obs->seconds_per_iteration, 0.25);
  EXPECT_TRUE(obs->plan_source.empty());
}

TEST(HistoryIngest, SkippedFilesBumpTheRightCounter) {
  obs::HistoryIngestStats stats;
  EXPECT_FALSE(obs::HistoryStore::parse_report_file(
      fixture_dir() + "/future_version.jsonl", &stats));
  EXPECT_EQ(stats.files_unknown_version, 1u);
  EXPECT_FALSE(obs::HistoryStore::parse_report_file(
      fixture_dir() + "/truncated.jsonl", &stats));
  EXPECT_EQ(stats.files_unparseable, 1u);
  EXPECT_FALSE(obs::HistoryStore::parse_report_file(
      fixture_dir() + "/incomplete.jsonl", &stats));
  EXPECT_EQ(stats.files_incomplete, 1u);
}

TEST(HistoryQuery, RankZeroObservationsOnlyMatchRankZeroQueries) {
  obs::HistoryStore store;
  store.ingest_dir(fixture_dir());  // one rank-8 and one rank-0 observation
  EXPECT_EQ(store.query(0xdeadbeefULL).size(), 2u);  // rank 0 = match any
  EXPECT_EQ(store.query(0xdeadbeefULL, 8).size(), 1u);
  EXPECT_EQ(store.query(0xdeadbeefULL, 8, "greedy").size(), 1u);
  EXPECT_EQ(store.query(0xdeadbeefULL, 8, "csf").size(), 0u);
  EXPECT_EQ(store.query(0x1234ULL).size(), 0u);  // unknown tensor
}

TEST(StrategyFromEngineLabel, StripsAutoPrefixes) {
  EXPECT_EQ(obs::strategy_from_engine_label("auto:bdt/asc"), "bdt/asc");
  EXPECT_EQ(obs::strategy_from_engine_label("auto+probe:greedy"), "greedy");
  EXPECT_EQ(obs::strategy_from_engine_label("csf"), "csf");
  EXPECT_EQ(obs::strategy_from_engine_label(""), "");
}

TEST(Report, CloseRenamesTmpIntoPlace) {
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/mdcp_atomic_report.jsonl";
  fs::remove(path);
  fs::remove(path + ".tmp");
  const auto tensor = generate_uniform({8, 9, 10}, 120, 3);
  {
    obs::RunReporter reporter(path);
    ASSERT_TRUE(reporter.ok());
    reporter.write_header(tensor, "test_history atomic", 1);
    // Until close(), only the crash-leftover tmp file exists: a reader (or
    // ingest_dir, which only scans *.jsonl) never sees a half-written report.
    EXPECT_TRUE(fs::exists(path + ".tmp"));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(reporter.close());
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// A real cp_als (or cp_mu) run with reporter + history attached must produce
// a report parse_report_file can round-trip, and must record the same
// observation in-process.
TEST(HistoryRoundTrip, CpAlsReportMatchesInProcessObservation) {
  const auto tensor = generate_uniform({20, 24, 28}, 800, 17);

  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  opt.seed = 5;
  opt.engine = "auto";
  // MU feeds history through the same sweep driver as ALS.
  for (const bool mu : {false, true}) {
    const std::string path = ::testing::TempDir() +
                             (mu ? "/mdcp_history_rt_mu.jsonl"
                                 : "/mdcp_history_rt.jsonl");
    obs::HistoryStore store;
    opt.history = &store;
    obs::RunReporter reporter(path);
    ASSERT_TRUE(reporter.ok());
    reporter.write_header(tensor, "test_history round-trip", num_threads());
    opt.reporter = &reporter;
    const auto result = mu ? cp_mu(tensor, opt) : cp_als(tensor, opt);
    EXPECT_EQ(result.iterations, 3);
    // Empty store at selection time: the tuner had nothing to consult.
    EXPECT_EQ(result.plan_source, "model");
    ASSERT_TRUE(reporter.close());

    ASSERT_EQ(store.size(), 1u);
    const obs::RunObservation& rec = store.observations()[0];
    const auto parsed = obs::HistoryStore::parse_report_file(path);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->fingerprint, obs::tensor_fingerprint(tensor));
    EXPECT_EQ(parsed->fingerprint, rec.fingerprint);
    EXPECT_EQ(parsed->engine_label, result.engine_name);
    EXPECT_EQ(parsed->strategy, rec.strategy);
    EXPECT_EQ(parsed->rank, 6u);
    // The thread count the overlay keys on agrees between the two.
    EXPECT_EQ(parsed->threads, rec.threads);
    EXPECT_EQ(parsed->iterations, 3);
    EXPECT_EQ(parsed->plan_source, "model");
    EXPECT_NEAR(parsed->seconds_per_iteration, rec.seconds_per_iteration,
                1e-9);
    // Both take each mode's fastest iteration, from the same numbers.
    ASSERT_EQ(parsed->mode_seconds.size(),
              static_cast<std::size_t>(tensor.order()));
    EXPECT_EQ(parsed->mode_seconds, rec.mode_seconds);
    // The report was written by this build on this machine.
    EXPECT_EQ(parsed->build_id, obs::HistoryStore::current_build_id());
    EXPECT_EQ(parsed->machine_id, obs::HistoryStore::current_machine_id());
  }
}

obs::RunObservation make_obs(std::uint64_t fingerprint,
                             const std::string& strategy, std::uint32_t rank,
                             double spi) {
  obs::RunObservation o;
  o.fingerprint = fingerprint;
  o.engine_label = "auto:" + strategy;
  o.strategy = strategy;
  o.rank = rank;
  o.threads = 1;  // CostModelParams' default
  o.build_id = obs::HistoryStore::current_build_id();
  o.machine_id = obs::HistoryStore::current_machine_id();
  o.iterations = 1;
  o.seconds_per_iteration = spi;
  o.plan_source = "model";
  return o;
}

// The tuner-facing behavior the whole layer exists for: one run of a
// candidate at this exact (tensor, rank, threads, build, machine) is enough
// for select_strategy to prefer the fastest such candidate and say so via
// plan_source. Runs of other provenance or of fixed engines are not
// consulted.
class TunerOverlay : public ::testing::Test {
 protected:
  void SetUp() override {
    tensor_ = generate_uniform({24, 26, 28}, 900, 21);
    fp_ = obs::tensor_fingerprint(tensor_);
    const TunerReport base = select_strategy(tensor_, kRank);
    ASSERT_GE(base.ranked.size(), 2u);
    EXPECT_STREQ(base.plan_source, "model");
    model_choice_ = base.winner().strategy.name;
    // Pick a budget-feasible candidate the model did NOT choose, so an
    // override is observable.
    for (std::size_t i = 0; i < base.ranked.size(); ++i) {
      if (i != base.chosen && base.ranked[i].fits_budget) {
        alt_choice_ = base.ranked[i].strategy.name;
        break;
      }
    }
    ASSERT_FALSE(alt_choice_.empty());
  }

  TunerReport select(const obs::HistoryStore& store, int threads = 1) const {
    CostModelParams params;
    params.threads = threads;
    return select_strategy(tensor_, kRank, 0, params, &store);
  }

  static constexpr index_t kRank = 8;
  CooTensor tensor_;
  std::uint64_t fp_ = 0;
  std::string model_choice_;
  std::string alt_choice_;
};

TEST_F(TunerOverlay, PicksTheFastestObservedCandidate) {
  obs::HistoryStore store;
  // One run is enough, even with none of the model's pick.
  store.record(make_obs(fp_, alt_choice_, kRank, 0.1));
  TunerReport report = select(store);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, alt_choice_);

  store.record(make_obs(fp_, model_choice_, kRank, 0.5));
  EXPECT_EQ(select(store).winner().strategy.name, alt_choice_);

  store.record(make_obs(fp_, model_choice_, kRank, 0.05));
  report = select(store);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);

  // Another rank or another tensor: nothing matches.
  obs::HistoryStore other;
  other.record(make_obs(fp_, alt_choice_, kRank + 1, 1e-9));
  other.record(make_obs(fp_ ^ 1, alt_choice_, kRank, 1e-9));
  report = select(other);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);
}

TEST_F(TunerOverlay, EmptyOrAbsentStoreStaysOnModel) {
  obs::HistoryStore store;
  TunerReport report = select(store);
  EXPECT_STREQ(report.plan_source, "model");

  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  report = select_strategy(tensor_, kRank, 0, {}, nullptr);  // --no-history
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);
}

TEST_F(TunerOverlay, FixedEngineObservationDoesNotMaskCandidates) {
  obs::HistoryStore store;
  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  // A "coo" run faster than every candidate: it is no candidate, so it
  // matches nothing and the candidate's own run still decides.
  obs::RunObservation coo = make_obs(fp_, "coo", kRank, 1e-9);
  coo.engine_label = "coo";
  coo.plan_source = "fixed";
  store.record(std::move(coo));
  const TunerReport report = select(store);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, alt_choice_);
}

TEST_F(TunerOverlay, OneThreadObservationDoesNotOverrideFourThreadPlan) {
  obs::HistoryStore store;
  const TunerReport base = select(store, 4);
  std::string alt;
  for (std::size_t i = 0; i < base.ranked.size(); ++i)
    if (i != base.chosen && base.ranked[i].fits_budget) {
      alt = base.ranked[i].strategy.name;
      break;
    }
  ASSERT_FALSE(alt.empty());
  store.record(make_obs(fp_, alt, kRank, 1e-9));  // taken at 1 thread
  TunerReport report = select(store, 4);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, base.winner().strategy.name);

  obs::RunObservation at4 = make_obs(fp_, alt, kRank, 1e-5);
  at4.threads = 4;
  store.record(std::move(at4));
  report = select(store, 4);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, alt);
}

TEST_F(TunerOverlay, AnotherBuildsObservationsAreNotConsulted) {
  obs::HistoryStore store;
  for (int i = 0; i < 3; ++i) {
    obs::RunObservation o = make_obs(fp_, alt_choice_, kRank, 1e-5);
    o.build_id ^= 0x1;
    store.record(std::move(o));
  }
  obs::RunObservation elsewhere = make_obs(fp_, alt_choice_, kRank, 1e-5);
  elsewhere.machine_id ^= 0x1;
  store.record(std::move(elsewhere));
  TunerReport report = select(store);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);

  // One run from THIS build on this machine is enough.
  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  report = select(store);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, alt_choice_);
}

TEST_F(TunerOverlay, OverBudgetCandidateIsNotResurrected) {
  const TunerReport base = select_strategy(tensor_, kRank);
  // A budget the model's pick fits but the fastest-measured one does not.
  const auto bytes = [&](const std::string& name) {
    for (const RankedStrategy& rs : base.ranked)
      if (rs.strategy.name == name)
        return rs.prediction.total_memory_bytes();
    return std::size_t{0};
  };
  std::string big;
  for (const RankedStrategy& rs : base.ranked)
    if (rs.prediction.total_memory_bytes() > bytes(model_choice_)) {
      big = rs.strategy.name;
      break;
    }
  ASSERT_FALSE(big.empty()) << "no candidate outgrows the model's pick";
  obs::HistoryStore store;
  store.record(make_obs(fp_, big, kRank, 1e-9));
  const TunerReport report =
      select_strategy(tensor_, kRank, bytes(model_choice_), {}, &store);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);
}

TEST(TunerOptionsProbe, OnlyTheAutoEngineProbes) {
  CpAlsOptions opt;
  opt.engine = "coo";
  opt.probe = true;
  EXPECT_THROW((void)make_cp_engine(opt), error);
  opt.engine = "auto";
  EXPECT_NE(make_cp_engine(opt), nullptr);
}

obs::RunObservation make_drift_obs(double spi, double jitter) {
  obs::RunObservation o = make_obs(0xd41f7ULL, "bdt", 8, spi * (1 + jitter));
  o.mode_seconds = {0.5 * o.seconds_per_iteration,
                    0.3 * o.seconds_per_iteration,
                    0.2 * o.seconds_per_iteration};
  return o;
}

class Drift : public ::testing::Test {
 protected:
  void SetUp() override {
    // Four clean runs with ±2% scheduling jitter.
    for (const double j : {-0.02, -0.01, 0.01, 0.02})
      store_.record(make_drift_obs(0.1, j));
  }
  obs::HistoryStore store_;
};

TEST_F(Drift, FlagsInjectedThreeTimesSlowdownOnEveryKernel) {
  const obs::DriftReport dr =
      obs::detect_drift(store_, make_drift_obs(0.3, 0.0));
  EXPECT_EQ(dr.history_runs, 4u);
  EXPECT_TRUE(dr.regressed);
  EXPECT_TRUE(dr.out_of_band);
  ASSERT_EQ(dr.findings.size(), 4u);  // mode0..2 + mttkrp
  for (const auto& f : dr.findings) {
    EXPECT_STREQ(f.status, "regression") << f.kernel;
    EXPECT_GT(f.z, 3.5) << f.kernel;
    EXPECT_NEAR(f.measured / f.median, 3.0, 0.1) << f.kernel;
  }
}

TEST_F(Drift, QuietAcrossTheNoiseBand) {
  // A fifth clean run inside the jitter band must not alarm.
  const obs::DriftReport dr =
      obs::detect_drift(store_, make_drift_obs(0.1, 0.015));
  EXPECT_FALSE(dr.regressed);
  EXPECT_FALSE(dr.out_of_band);
  for (const auto& f : dr.findings) EXPECT_STREQ(f.status, "ok") << f.kernel;
}

TEST_F(Drift, ImprovementIsOutOfBandButNotARegression) {
  const obs::DriftReport dr =
      obs::detect_drift(store_, make_drift_obs(0.02, 0.0));
  EXPECT_FALSE(dr.regressed);
  EXPECT_TRUE(dr.out_of_band);
  bool improved = false;
  for (const auto& f : dr.findings)
    if (std::string(f.status) == "improved") improved = true;
  EXPECT_TRUE(improved);
}

TEST_F(Drift, InsufficientHistoryReportsWhyAndStaysEmpty) {
  obs::HistoryStore sparse;
  sparse.record(make_drift_obs(0.1, 0.0));
  const obs::DriftReport dr =
      obs::detect_drift(sparse, make_drift_obs(0.3, 0.0));
  EXPECT_EQ(dr.history_runs, 1u);
  EXPECT_TRUE(dr.findings.empty());
  EXPECT_FALSE(dr.regressed);

  // Different strategy / rank / tensor are not comparable either.
  const obs::DriftReport other =
      obs::detect_drift(store_, make_obs(0xd41f7ULL, "csf", 8, 0.3));
  EXPECT_EQ(other.history_runs, 0u);
  EXPECT_TRUE(other.findings.empty());
}

// obs::band replaced two rules; its verdicts must match them, inlined here
// as the oracle: the tools' fixed band (one sample: new > base·(1 + T)) on
// the regression side, and the drift detector's robust z-band (≥ 2 samples,
// scale = max(1.4826·MAD, floor_fraction·median), |z| > sigma = 3.5, so
// T = sigma·floor_fraction) on both sides. The measured values step through
// ratios off the band edges; one sample also gets values on and one ulp
// either side of its edge, since bench cells carry few digits and land
// there.
TEST(Band, VerdictsMatchTheRulesItReplaced) {
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double sigma = 3.5;
  const auto old_drift = [&](const std::vector<double>& samples,
                             double measured, double floor_fraction) {
    const double m = median(samples);
    std::vector<double> dev;
    for (const double s : samples) dev.push_back(std::abs(s - m));
    const double scale =
        std::max({1.4826 * median(dev), floor_fraction * m, 1e-12});
    const double z = (measured - m) / scale;
    return z > sigma ? "regression" : z < -sigma ? "improved" : "ok";
  };
  const auto old_classify = [](double base, double next, double threshold) {
    return next / base > 1.0 + threshold ? "regression" : "ok";
  };

  const std::vector<std::vector<double>> sample_sets = {
      {1.0},
      {0.004},
      {3e-5},
      {1.0, 1.0},
      {1.0, 1.1},
      {0.9, 1.0, 1.3},
      {1.0, 1.02, 0.98, 1.01},
      {2e-5, 2.2e-5, 2.1e-5, 5e-5},
      {0.1, 0.1, 0.1, 0.4, 0.1},
  };
  int compared = 0, regressions = 0, improvements = 0;
  for (const double floor_fraction : {0.02, 0.05, 0.12, 0.25, 0.5, 1.0, 3.0}) {
    const double threshold = sigma * floor_fraction;
    for (const std::vector<double>& samples : sample_sets) {
      const double base = median(samples);
      std::vector<double> values;
      for (int k = 0; k <= 400; ++k)
        values.push_back(base * (0.05 + 0.0131 * k));
      if (samples.size() == 1) {
        const double edge = base * (1 + threshold);
        values.insert(values.end(), {edge, std::nextafter(edge, 0.0),
                                     std::nextafter(edge, 2 * edge)});
      }
      for (const double measured : values) {
        const obs::Finding f = obs::band(samples, measured, threshold);
        std::string want;
        if (samples.size() == 1) {
          want = old_classify(samples[0], measured, threshold);
          if (std::strcmp(f.status, "improved") == 0) continue;
        } else {
          want = old_drift(samples, measured, floor_fraction);
        }
        EXPECT_EQ(f.status, want) << "T " << threshold << " samples "
                                  << samples.size() << " x " << measured;
        ++compared;
        regressions += want == "regression";
        improvements += want == "improved";
      }
    }
  }
  // Every verdict occurs on the grid.
  EXPECT_GT(regressions, 0);
  EXPECT_GT(improvements, 0);
  EXPECT_GT(compared - regressions - improvements, 0);
}

}  // namespace
}  // namespace mdcp
