#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "model/cost_model.hpp"
#include "model/sketch.hpp"
#include "model/strategy.hpp"
#include "model/tuner.hpp"
#include "mttkrp/engine.hpp"
#include "tensor/generator.hpp"
#include "tensor/stats.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {
namespace {

using mdcp::testing::random_factors;

TEST(Sketch, ProjectionHashDeterministic) {
  const auto t = generate_uniform(shape_t{20, 20, 20}, 200, 1);
  EXPECT_EQ(projection_hash(t, 5, 0b011), projection_hash(t, 5, 0b011));
  EXPECT_NE(projection_hash(t, 5, 0b011), projection_hash(t, 5, 0b101));
}

// Exactly `nnz` nonzeros with uniform coordinates; repeats are kept, so
// small shapes give projections with many duplicates.
CooTensor random_coords(const shape_t& shape, nnz_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  CooTensor t(shape);
  std::vector<index_t> c(shape.size());
  for (nnz_t i = 0; i < nnz; ++i) {
    for (std::size_t m = 0; m < shape.size(); ++m)
      c[m] = rng.next_index(shape[m]);
    t.push_back(c, 1.0);
  }
  return t;
}

TEST(Sketch, ExactMatchesSortBasedCount) {
  std::vector<std::pair<std::string, CooTensor>> inputs;
  inputs.emplace_back("zipf4d", generate_zipf(shape_t{80, 4000, 20000, 6000},
                                              30000, 1.1, 3));
  inputs.emplace_back(
      "clustered5d",
      generate_clustered(shape_t{200, 150, 100, 50, 20}, 40000,
                         {.clusters = 32, .spread = 6.0}, 5));
  inputs.emplace_back("uniform3d",
                      generate_uniform(shape_t{50, 60, 70}, 20000, 7));
  inputs.emplace_back(
      "order7", generate_uniform(shape_t{6, 7, 8, 9, 10, 11, 12}, 5000, 9));
  inputs.emplace_back("size1-mode",
                      generate_uniform(shape_t{1, 50, 60}, 2000, 11));
  for (const nnz_t nnz : {0u, 1u, 2u})
    inputs.emplace_back("nnz" + std::to_string(nnz),
                        random_coords(shape_t{3, 4, 5}, nnz, 13));
  // The partition uses bit_width(nnz >> 10) bucket bits: straddle the
  // boundaries where that grows.
  for (const nnz_t nnz : {1023u, 1024u, 1025u, 2047u, 2048u, 2049u, 4096u})
    inputs.emplace_back("nnz" + std::to_string(nnz),
                        random_coords(shape_t{40, 30, 2000}, nnz, nnz));
  // One scratch shared by every count, as ProjectionCounter shares it: its
  // arrays and probe table shrink and grow between passes.
  DistinctCountScratch shared;
  for (const auto& [name, t] : inputs) {
    for (mode_set_t s = 1; s <= all_modes(t.order()); ++s) {
      const nnz_t want = distinct_projection_count(t, s);
      EXPECT_EQ(exact_distinct_projections(t, s), want)
          << name << " subset " << s;
      EXPECT_EQ(exact_distinct_projections(t, s, shared), want)
          << name << " subset " << s << " (shared scratch)";
    }
  }
}

TEST(Sketch, BatchHashesMatchProjectionHash) {
  const auto t = generate_zipf(shape_t{30, 40, 50, 60, 70}, 5000, 1.1, 15);
  for (mode_set_t s : {0u, 0b00001u, 0b10110u, 0b01001u, 0b11111u}) {
    std::vector<std::uint64_t> all(t.nnz());
    projection_hashes(t, s, 0, all);
    for (nnz_t i = 0; i < t.nnz(); ++i)
      ASSERT_EQ(all[i], projection_hash(t, i, s)) << "subset " << s;
    // A window starting mid-tensor, with a non-default seed (as KMV uses).
    std::vector<std::uint64_t> window(100);
    projection_hashes(t, s, 1234, window, 42);
    for (nnz_t j = 0; j < window.size(); ++j)
      ASSERT_EQ(window[j], projection_hash(t, 1234 + j, s, 42))
          << "subset " << s;
  }
}

TEST(Sketch, CountDistinctHashesOnCraftedArrays) {
  using H = std::vector<std::uint64_t>;
  EXPECT_EQ(count_distinct_hashes(H{}), 0u);
  // 0 marks an empty table slot, so a real 0 is counted on the side.
  EXPECT_EQ(count_distinct_hashes(H{0}), 1u);
  EXPECT_EQ(count_distinct_hashes(H{0, 0, 5}), 2u);
  EXPECT_EQ(count_distinct_hashes(H{7, 0, 7, 0}), 2u);
  // All equal, small and large (one bucket holds everything).
  EXPECT_EQ(count_distinct_hashes(H(5000, 0)), 1u);
  EXPECT_EQ(count_distinct_hashes(H(5000, 0x8000000000000001ULL)), 1u);
  EXPECT_EQ(count_distinct_hashes(H(5000, ~std::uint64_t{0})), 1u);

  // 2048 entries give 4 buckets by the top two bits: one entry in each of the
  // first three, the rest (distinct) in the last.
  H one_entry{0, std::uint64_t{1} << 62, std::uint64_t{2} << 62};
  for (std::uint64_t i = 0; one_entry.size() < 2048; ++i)
    one_entry.push_back((std::uint64_t{3} << 62) | (i + 1));
  EXPECT_EQ(count_distinct_hashes(one_entry), 2048u);

  // 16 buckets of 256 distinct values, each twice, whose low 24 bits are all
  // zero: every value has the same home slot, so each bucket fills one long
  // probe chain that must be cleared completely before the next bucket.
  H chains;
  for (std::uint64_t b = 0; b < 16; ++b)
    for (std::uint64_t i = 0; i < 256; ++i)
      for (int copy = 0; copy < 2; ++copy)
        chains.push_back((b << 60) | ((i + 1) << 24));
  EXPECT_EQ(count_distinct_hashes(chains), 4096u);
}

TEST(Sketch, ExactHandlesEmptyAndFullSets) {
  const auto t = generate_uniform(shape_t{10, 10}, 50, 5);
  EXPECT_EQ(exact_distinct_projections(t, 0), 1u);
  EXPECT_EQ(exact_distinct_projections(t, 0b11), t.nnz());
}

TEST(Sketch, KmvSmallUniverseIsExact) {
  // Fewer distinct values than k → KMV returns the exact count.
  const auto t = generate_uniform(shape_t{30, 1000, 1000}, 5000, 7);
  const nnz_t exact = exact_distinct_projections(t, 0b001);
  EXPECT_EQ(kmv_distinct_projections(t, 0b001, 1024), exact);
}

TEST(Sketch, KmvAccurateOnLargeUniverse) {
  const auto t = generate_uniform(shape_t{500, 500, 500}, 60000, 11);
  for (mode_set_t s : {0b011u, 0b111u}) {
    const auto exact = static_cast<double>(exact_distinct_projections(t, s));
    const auto est =
        static_cast<double>(kmv_distinct_projections(t, s, 1024));
    EXPECT_NEAR(est / exact, 1.0, 0.15) << "subset " << s;
  }
}

TEST(Sketch, ProjectionCounterCachesPasses) {
  const auto t = generate_uniform(shape_t{40, 40, 40}, 1000, 13);
  ProjectionCounter counter(t);
  const auto a = counter.count(0b011);
  const auto b = counter.count(0b011);
  EXPECT_EQ(a, b);
  EXPECT_EQ(counter.passes(), 1u);
  counter.count(0b110);
  EXPECT_EQ(counter.passes(), 2u);
}

// The exact passes split their work into one chunk per thread; every count
// must be the serial one at any thread count.
constexpr int kThreadCounts[] = {1, 3, 4};

TEST(Sketch, CountDistinctHashesAtEveryThreadCount) {
  Rng rng(21);
  std::vector<std::vector<std::uint64_t>> arrays;
  // Many duplicates, mostly distinct, and few values (a few huge buckets).
  for (const std::uint64_t universe : {std::uint64_t{5000}, ~std::uint64_t{0},
                                       std::uint64_t{3}}) {
    std::vector<std::uint64_t> h(60000);
    for (auto& x : h) x = splitmix64(rng.next_u64() % universe);
    arrays.push_back(std::move(h));
  }
  arrays.back()[123] = 0;  // a real 0 hash, counted on the side
  // Values crowded into the top bucket: one chunk takes almost everything.
  std::vector<std::uint64_t> top(50000);
  for (std::size_t i = 0; i < top.size(); ++i)
    top[i] = i % 7 == 0 ? i : ~std::uint64_t{0} - i % 20000;
  arrays.push_back(std::move(top));
  for (const auto& h : arrays) {
    std::vector<std::uint64_t> sorted = h;
    std::sort(sorted.begin(), sorted.end());
    const auto want = static_cast<nnz_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    DistinctCountScratch shared;
    for (const int threads : kThreadCounts) {
      const ThreadScope scope(threads);
      EXPECT_EQ(count_distinct_hashes(h), want) << threads << " threads";
      EXPECT_EQ(count_distinct_hashes(h, shared), want)
          << threads << " threads (shared scratch)";
    }
  }
}

TEST(Sketch, ProjectionCounterAtEveryThreadCount) {
  const std::vector<CooTensor> tensors{
      generate_zipf(shape_t{8, 4000, 20000, 6000}, 60000, 1.1, 3),
      generate_clustered(shape_t{200, 150, 100, 50, 20}, 50000,
                         {.clusters = 32, .spread = 6.0}, 5),
      random_coords(shape_t{3, 7, 2000}, 40000, 17),
  };
  for (const CooTensor& t : tensors) {
    std::vector<nnz_t> want;
    for (mode_set_t s = 1; s <= all_modes(t.order()); ++s)
      want.push_back(distinct_projection_count(t, s));
    for (const int threads : kThreadCounts) {
      const ThreadScope scope(threads);
      ProjectionCounter counter(t);
      for (mode_set_t s = 1; s <= all_modes(t.order()); ++s)
        EXPECT_EQ(counter.count(s), want[s - 1])
            << t.summary() << " subset " << s << ", " << threads
            << " threads";
      EXPECT_EQ(counter.passes(), want.size());
    }
  }
}

TEST(Sketch, SingleModeCountOnBothSidesOfTheBitmapLimit) {
  // Mode 1's bitmaps hold round_up(dim, 64) bits per thread: 64000 bits is
  // at kOccupancyBitsPerNonzero per nonzero for 1000 nonzeros, 64064 past
  // it, so at one thread the first counts slices and the second hashes.
  constexpr nnz_t kNnz = 1000;
  for (const index_t dim : {index_t{64000}, index_t{64001}, index_t{3000000}}) {
    const CooTensor t = random_coords(shape_t{5, dim, 9}, kNnz, dim);
    ASSERT_EQ(kOccupancyBitsPerNonzero * kNnz, 64000u);
    for (const int threads : kThreadCounts) {
      const ThreadScope scope(threads);
      for (mode_set_t s : {0b001u, 0b010u, 0b100u, 0b011u})
        EXPECT_EQ(exact_distinct_projections(t, s),
                  distinct_projection_count(t, s))
            << "dim " << dim << " subset " << s << ", " << threads
            << " threads";
    }
  }
}

TEST(CostModel, BdtNeedsFewerFlopsThanFlatAtHighOrder) {
  const auto t = generate_uniform(shape_t{40, 40, 40, 40, 40, 40, 40, 40},
                                  20000, 17);
  ProjectionCounter counter(t);
  std::vector<mode_t> order(8);
  for (mode_t m = 0; m < 8; ++m) order[m] = m;
  const auto flat =
      predict_strategy(t, TreeSpec::flat(order), 16, counter);
  const auto bdt = predict_strategy(t, TreeSpec::bdt(order), 16, counter);
  // Flat touches the full tensor N times; the BDT only twice. At order 8 the
  // predicted flop gap must be large.
  EXPECT_LT(bdt.flops_per_iteration, flat.flops_per_iteration / 1.8);
}

TEST(CostModel, PredictedTuplesMatchSymbolicTree) {
  const auto t = generate_clustered(shape_t{200, 200, 200, 200}, 4000,
                                    {.clusters = 10, .spread = 4.0}, 19);
  ProjectionCounter counter(t);
  std::vector<mode_t> order{0, 1, 2, 3};
  const auto spec = TreeSpec::bdt(order);
  const auto pred = predict_strategy(t, spec, 8, counter);
  const DimensionTree tree(t, spec);
  // Every predicted node count equals the symbolic truth (counter is exact
  // at this size).
  for (const auto& nc : pred.nodes) {
    bool found = false;
    for (int i = 0; i < tree.size(); ++i) {
      const auto& n = tree.node(i);
      if (!n.is_root() && n.mode_set == nc.mode_set) {
        EXPECT_EQ(nc.tuples, n.tuples) << "mode set " << nc.mode_set;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "mode set " << nc.mode_set;
  }
}

// Below kExactProjectionThreshold the counts are exact, so the predicted
// symbolic footprint must be the built tree's, byte for byte, for every
// candidate the tuner ranks (the greedy tree included).
TEST(CostModel, SymbolicBytesMatchBuiltTree) {
  const std::vector<CooTensor> tensors{
      generate_zipf(shape_t{80, 400, 2000, 600}, 20000, 1.1, 3),
      generate_clustered(shape_t{200, 150, 100, 50, 20}, 20000,
                         {.clusters = 32, .spread = 6.0}, 5),
      generate_uniform(shape_t{50, 60, 70}, 10000, 7)};
  for (const CooTensor& t : tensors) {
    ASSERT_LE(t.nnz(), kExactProjectionThreshold);
    ProjectionCounter counter(t);
    for (const Strategy& s : enumerate_strategies(t, &counter)) {
      const auto pred = predict_strategy(t, s.spec, 8, counter);
      const DimensionTree tree(t, s.spec);
      EXPECT_EQ(pred.symbolic_bytes, tree.symbolic_bytes())
          << "order " << t.order() << " " << s.name << " "
          << s.spec.to_string();
    }
  }
}

TEST(CostModel, PeakValueMemoryTracksMeasuredPeak) {
  const auto t = generate_uniform(shape_t{60, 60, 60, 60}, 3000, 23);
  ProjectionCounter counter(t);
  std::vector<mode_t> order{0, 1, 2, 3};
  const auto spec = TreeSpec::bdt(order);
  const index_t rank = 8;
  const auto pred = predict_strategy(t, spec, rank, counter);

  DTreeMttkrpEngine engine(t, spec);
  const auto factors = random_factors(t, rank, 3);
  Matrix out;
  std::size_t measured_peak_values = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (mode_t m = 0; m < 4; ++m) {
      engine.compute(m, factors, out);
      std::size_t live = 0;
      for (int i = 0; i < engine.tree().size(); ++i)
        live += engine.tree().node(i).values.size() * sizeof(real_t);
      measured_peak_values = std::max(measured_peak_values, live);
      engine.factor_updated(m);
    }
  }
  // The cached values of one mode's path stay live while the next mode's
  // path is computed; the model counts exactly that union.
  EXPECT_EQ(pred.peak_value_bytes, measured_peak_values);
  EXPECT_GT(pred.peak_value_bytes, 0u);
}

TEST(Strategies, EnumerationCoversCanonicalShapes) {
  // Order 5: the BDT shape is distinct from every 3-level shape (at
  // order 4 they coincide and deduplicate).
  const auto t = generate_uniform(shape_t{30, 40, 50, 60, 70}, 500, 29);
  const auto strategies = enumerate_strategies(t);
  EXPECT_GE(strategies.size(), 5u);
  bool has_flat = false, has_bdt = false, has_3lvl = false;
  for (const auto& s : strategies) {
    if (s.name.rfind("flat", 0) == 0) has_flat = true;
    if (s.name.rfind("bdt", 0) == 0) has_bdt = true;
    if (s.name.rfind("3lvl", 0) == 0) has_3lvl = true;
    EXPECT_NO_THROW(s.spec.validate(t.order()));
  }
  EXPECT_TRUE(has_flat);
  EXPECT_TRUE(has_bdt);
  EXPECT_TRUE(has_3lvl);
}

TEST(Strategies, DeduplicatesIdenticalSpecs) {
  // All mode dims equal → asc/desc orders equal natural → no duplicates.
  const auto t = generate_uniform(shape_t{20, 20, 20}, 200, 31);
  const auto strategies = enumerate_strategies(t);
  std::vector<std::string> keys;
  for (const auto& s : strategies) keys.push_back(s.spec.to_string());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Tuner, RanksAscendingByPredictedTime) {
  const auto t = generate_zipf(shape_t{80, 80, 80, 80, 80}, 4000, 1.1, 37);
  const auto report = select_strategy(t, 16);
  ASSERT_FALSE(report.ranked.empty());
  for (std::size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_LE(report.ranked[i - 1].prediction.seconds_per_iteration,
              report.ranked[i].prediction.seconds_per_iteration);
  }
  EXPECT_EQ(report.chosen, 0u);  // unlimited budget → fastest wins
}

TEST(Tuner, MemoryBudgetForcesCheaperStrategy) {
  const auto t = generate_uniform(shape_t{100, 100, 100, 100, 100}, 8000, 41);
  const auto unlimited = select_strategy(t, 32);
  const auto& win = unlimited.winner();
  // A budget below the winner's footprint must move the choice.
  const std::size_t tight = win.prediction.total_memory_bytes() / 2;
  const auto limited = select_strategy(t, 32, tight);
  if (limited.winner().fits_budget) {
    // The budgeted winner honors the cap and differs from the unrestricted
    // winner (whose footprint exceeds the cap by construction).
    EXPECT_LE(limited.winner().prediction.total_memory_bytes(), tight);
    EXPECT_NE(limited.winner().strategy.spec.to_string(),
              win.strategy.spec.to_string());
  } else {
    // Nothing fit: fallback must be the minimum-memory strategy.
    for (const auto& rs : limited.ranked) {
      EXPECT_GE(rs.prediction.total_memory_bytes(),
                limited.winner().prediction.total_memory_bytes());
    }
  }
}

TEST(Tuner, AutoEnginePrefersMemoizationOnHighOrder) {
  // Order-6 tensor: any sane cost model should pick a memoizing tree, not
  // the flat strategy.
  const auto t = generate_uniform(shape_t{30, 30, 30, 30, 30, 30}, 5000, 43);
  const auto report = select_strategy(t, 16);
  EXPECT_EQ(report.winner().strategy.name.rfind("flat", 0), std::string::npos)
      << "winner was " << report.winner().strategy.name;
}

TEST(Tuner, CalibratedModelStillRanksSanely) {
  const auto params = calibrate_cost_model(8);
  EXPECT_GT(params.seconds_per_flop, 0.0);
  EXPECT_GT(params.seconds_per_byte, 0.0);
  const auto t = generate_uniform(shape_t{40, 40, 40, 40, 40, 40}, 3000, 47);
  const auto report = select_strategy(t, 16, 0, params);
  EXPECT_FALSE(report.ranked.empty());
}

TEST(GreedyTree, ProducesValidSpec) {
  const auto t = generate_clustered(shape_t{100, 100, 100, 100, 100}, 3000,
                                    {.clusters = 12, .spread = 4.0}, 51);
  ProjectionCounter counter(t);
  const auto spec = greedy_tree(t, counter);
  EXPECT_NO_THROW(spec.validate(t.order()));
  EXPECT_EQ(spec.children.size(), 2u);
}

TEST(GreedyTree, PairsCorrelatedModes) {
  // Modes 0 and 1 are perfectly correlated (always equal); greedy must merge
  // them first, so {0,1} appears as a subtree.
  CooTensor t(shape_t{50, 50, 50, 50});
  Rng rng(53);
  std::vector<index_t> c(4);
  for (int i = 0; i < 500; ++i) {
    c[0] = rng.next_index(50);
    c[1] = c[0];
    c[2] = rng.next_index(50);
    c[3] = rng.next_index(50);
    t.push_back(c, 1.0);
  }
  t.coalesce();
  ProjectionCounter counter(t);
  const auto spec = greedy_tree(t, counter);
  EXPECT_NE(spec.to_string().find("(0,1)"), std::string::npos)
      << spec.to_string();
}

TEST(GreedyTree, IncludedInTunerEnumeration) {
  const auto t = generate_clustered(shape_t{200, 200, 200, 200}, 2000,
                                    {.clusters = 8, .spread = 3.0}, 55);
  ProjectionCounter counter(t);
  const auto strategies = enumerate_strategies(t, &counter);
  bool has_greedy = false;
  for (const auto& s : strategies)
    if (s.name == "greedy") has_greedy = true;
  // Greedy may coincide with a canonical spec (then deduplicated), but on a
  // clustered tensor with asymmetric collapse it is normally distinct.
  const auto no_counter = enumerate_strategies(t);
  EXPECT_GE(strategies.size(), no_counter.size());
  (void)has_greedy;
}

TEST(ProbedTuner, PicksBudgetFeasibleMeasuredWinner) {
  const auto t = generate_zipf(shape_t{60, 60, 60, 60}, 2500, 1.1, 57);
  const auto report = select_strategy_probed(t, 8);
  ASSERT_LT(report.chosen, report.ranked.size());
  EXPECT_TRUE(report.winner().fits_budget);
  // The probed winner must come from the model's top three.
  EXPECT_LT(report.chosen, 3u);
}

TEST(ProbedTuner, EngineIsExact) {
  const auto t = generate_uniform(shape_t{30, 35, 40, 45}, 1500, 59);
  const auto factors = random_factors(t, 5, 60);
  TunerOptions probe;
  probe.probe = true;
  AutoEngine engine({}, probe);
  engine.prepare(t, 5);
  EXPECT_EQ(engine.name().rfind("auto:", 0), 0u) << engine.name();
  EXPECT_LT(engine.report().chosen, 3u);
  Matrix got, want;
  for (mode_t m = 0; m < t.order(); ++m) {
    engine.compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9) << "mode " << m;
  }
}

}  // namespace
}  // namespace mdcp
