// Property tests for the tile partitioner (sched/partition.hpp), the
// schedule heuristic (sched/schedule.hpp) and the launch runner
// (sched/launch.hpp).
//
// Partitioner invariants, for every builder and random weight profile:
//   * cover     — the tiles' group ranges are disjoint, contiguous, and
//                 together cover every weight unit / item exactly once;
//   * canonical — bounds are non-decreasing and offsets stay inside their
//                 group (or the terminal (groups, 0));
//   * balance   — the heaviest tile is bounded by target + the heaviest
//                 unit the builder is not allowed to split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "sched/launch.hpp"
#include "sched/partition.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"
#include "util/workspace.hpp"

namespace mdcp::sched {
namespace {

std::vector<nnz_t> prefix_from_weights(const std::vector<nnz_t>& w) {
  std::vector<nnz_t> ptr(w.size() + 1, 0);
  std::partial_sum(w.begin(), w.end(), ptr.begin() + 1);
  return ptr;
}

// Walks every tile and asserts the (group, begin, end) ranges are contiguous
// and cover [0, size(g)) of every group exactly once. Returns the weight of
// each tile (end - begin summed), which for weight-space plans is the tile's
// load directly.
std::vector<nnz_t> check_cover(const TilePlan& plan,
                               const std::vector<nnz_t>& sizes) {
  EXPECT_GE(plan.tiles(), 1);
  std::vector<nnz_t> next(sizes.size(), 0);
  std::vector<nnz_t> tile_weight(static_cast<std::size_t>(plan.tiles()), 0);
  nnz_t last_group = 0;
  for (int t = 0; t < plan.tiles(); ++t) {
    EXPECT_LE(plan.bounds[t].group, plan.bounds[t + 1].group);
    for_each_group_range(
        plan, t, [&](nnz_t g) { return sizes[g]; },
        [&](nnz_t g, nnz_t b, nnz_t e) {
          ASSERT_LT(g, sizes.size());
          EXPECT_GE(g, last_group);
          last_group = g;
          EXPECT_EQ(b, next[g]) << "tile " << t << " group " << g
                                << ": gap or overlap";
          EXPECT_LT(b, e);
          EXPECT_LE(e, sizes[g]);
          next[g] = e;
          tile_weight[t] += e - b;
        });
  }
  for (std::size_t g = 0; g < sizes.size(); ++g)
    EXPECT_EQ(next[g], sizes[g]) << "group " << g << " not fully covered";
  return tile_weight;
}

std::vector<nnz_t> random_weights(nnz_t groups, nnz_t max_w, Rng& rng,
                                  double empty_fraction = 0.2) {
  std::vector<nnz_t> w(groups);
  for (auto& x : w)
    x = rng.next_real() < empty_fraction ? 0 : 1 + rng.next_below(max_w);
  return w;
}

TEST(Partition, GroupsCoverAndBalance) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const nnz_t groups = 1 + rng.next_below(200);
    const auto w = random_weights(groups, 50, rng);
    const auto ptr = prefix_from_weights(w);
    const nnz_t total = ptr.back();
    const int max_tiles = 1 + static_cast<int>(rng.next_below(16));

    const TilePlan plan = tile_groups(ptr, max_tiles);
    EXPECT_FALSE(plan.splits_groups);
    EXPECT_LE(plan.tiles(), max_tiles);
    const auto loads = check_cover(plan, w);

    // Whole groups only: every bound sits at a group start.
    for (const TileBound& b : plan.bounds) EXPECT_EQ(b.offset, 0u);
    if (total > 0) {
      const nnz_t target =
          (total + static_cast<nnz_t>(max_tiles) - 1) / max_tiles;
      const nnz_t max_group = *std::max_element(w.begin(), w.end());
      for (nnz_t load : loads) EXPECT_LE(load, target + max_group);
    }
  }
}

TEST(Partition, GroupsSplitCoverAndExactBalance) {
  Rng rng(102);
  for (int trial = 0; trial < 50; ++trial) {
    const nnz_t groups = 1 + rng.next_below(200);
    const auto w = random_weights(groups, 1000, rng);
    const auto ptr = prefix_from_weights(w);
    const nnz_t total = ptr.back();
    const int tiles = 1 + static_cast<int>(rng.next_below(16));

    const TilePlan plan = tile_groups_split(ptr, tiles);
    EXPECT_TRUE(plan.splits_groups);
    EXPECT_EQ(plan.tiles(), tiles);
    const auto loads = check_cover(plan, w);

    // Cuts land anywhere in weight space, so balance is exact: tile loads
    // differ by at most one weight unit.
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    EXPECT_LE(*hi - *lo, 1u) << "total=" << total << " tiles=" << tiles;
  }
}

TEST(Partition, ItemsSplitCoverAndBalance) {
  Rng rng(103);
  for (int trial = 0; trial < 50; ++trial) {
    const nnz_t groups = 1 + rng.next_below(40);
    // Random group → item-count map, then random per-item weights.
    std::vector<nnz_t> items_per_group(groups);
    for (auto& n : items_per_group) n = rng.next_below(8);
    const auto group_ptr = prefix_from_weights(items_per_group);
    const nnz_t items = group_ptr.back();
    std::vector<nnz_t> item_w(items);
    for (auto& x : item_w) x = 1 + rng.next_below(100);
    const int tiles = 1 + static_cast<int>(rng.next_below(8));

    const TilePlan plan = tile_items_split(item_w, group_ptr, tiles);
    EXPECT_TRUE(plan.splits_groups);
    EXPECT_LE(plan.tiles(), tiles);
    // Offsets are item indices: cover in item space, weigh tiles manually.
    check_cover(plan, items_per_group);

    const nnz_t total =
        std::accumulate(item_w.begin(), item_w.end(), nnz_t{0});
    if (total > 0) {
      const nnz_t target = (total + static_cast<nnz_t>(tiles) - 1) / tiles;
      const nnz_t max_item = *std::max_element(item_w.begin(), item_w.end());
      std::vector<nnz_t> loads(static_cast<std::size_t>(plan.tiles()), 0);
      for (int t = 0; t < plan.tiles(); ++t)
        for_each_group_range(
            plan, t, [&](nnz_t g) { return items_per_group[g]; },
            [&](nnz_t g, nnz_t b, nnz_t e) {
              for (nnz_t i = b; i < e; ++i)
                loads[t] += item_w[group_ptr[g] + i];
            });
      for (nnz_t load : loads) EXPECT_LE(load, target + max_item);
    }
  }
}

TEST(Partition, UniformCoversAndBalances) {
  for (nnz_t n : {nnz_t{0}, nnz_t{1}, nnz_t{7}, nnz_t{1000}}) {
    for (int tiles : {1, 3, 8, 17}) {
      const TilePlan plan = tile_uniform(n, tiles);
      const auto loads = check_cover(plan, {n});
      nnz_t covered = 0;
      for (nnz_t load : loads) covered += load;
      EXPECT_EQ(covered, n);
      if (n > 0) {
        const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
        EXPECT_LE(*hi - *lo, 1u);
      }
    }
  }
}

TEST(Partition, DegenerateCases) {
  // No groups at all: a single empty tile, iteration visits nothing.
  const std::vector<nnz_t> empty_ptr{0};
  for (const TilePlan& plan :
       {tile_groups(empty_ptr, 4), tile_groups_split(empty_ptr, 4)}) {
    EXPECT_GE(plan.tiles(), 1);
    check_cover(plan, {});
  }

  // All-zero weights: everything collapses into tiles that visit nothing.
  const std::vector<nnz_t> zeros{0, 0, 0, 0};
  check_cover(tile_groups(prefix_from_weights(zeros), 3), zeros);

  // One giant group: owner-computes cannot split it (one tile does all the
  // work); the splitting builder spreads it evenly.
  const std::vector<nnz_t> giant{100000};
  const auto gptr = prefix_from_weights(giant);
  const auto owner_loads = check_cover(tile_groups(gptr, 8), giant);
  EXPECT_EQ(owner_loads.size(), 1u);
  const auto split_loads = check_cover(tile_groups_split(gptr, 8), giant);
  EXPECT_EQ(split_loads.size(), 8u);
  for (nnz_t load : split_loads) EXPECT_EQ(load, 12500u);

  // More tiles than weight: plans must stay canonical and covering.
  const std::vector<nnz_t> tiny{1, 1};
  check_cover(tile_groups(prefix_from_weights(tiny), 16), tiny);
  check_cover(tile_groups_split(prefix_from_weights(tiny), 16), tiny);

  // Nonsensical tile counts clamp to 1.
  EXPECT_GE(tile_groups(gptr, 0).tiles(), 1);
  EXPECT_GE(tile_groups_split(gptr, -3).tiles(), 1);
}

TEST(Schedule, HeuristicCascade) {
  // A shape that passes every privatization gate at 4 threads.
  WorkShape skewed;
  skewed.total = 100000;
  skewed.max_unit = 60000;  // skew = 2.4
  skewed.units = 5000;
  skewed.out_rows = 5000;
  skewed.rank = 16;

  const Decision d = choose_schedule(skewed, 4);
  EXPECT_EQ(d.schedule, Schedule::kPrivatized);
  EXPECT_STREQ(d.reason, "skewed");
  EXPECT_EQ(d.tiles, 4);
  EXPECT_EQ(d.partial_bytes, privatized_partial_bytes(4, 5000, 16));
  EXPECT_GT(d.skew, 1.0);

  // Single thread: never privatize.
  EXPECT_EQ(choose_schedule(skewed, 1).schedule, Schedule::kOwner);
  EXPECT_STREQ(choose_schedule(skewed, 1).reason, "single-thread");

  // Below the work gate.
  WorkShape small = skewed;
  small.total = kMinPrivatizeWork - 1;
  small.max_unit = small.total;
  EXPECT_STREQ(choose_schedule(small, 4).reason, "small-work");

  // Balanced work: heaviest unit fits one thread's fair share.
  WorkShape balanced = skewed;
  balanced.max_unit = balanced.total / 8;
  EXPECT_STREQ(choose_schedule(balanced, 4).reason, "balanced");

  // Partial slabs over the cap.
  WorkShape wide = skewed;
  wide.out_rows = 1 << 21;
  wide.rank = 64;  // 4 threads × 2M rows × 64 × 8B = 4 GiB > cap
  EXPECT_STREQ(choose_schedule(wide, 4).reason, "partials-too-large");

  // Combine pass would dominate the kernel.
  WorkShape thin = skewed;
  thin.out_rows = static_cast<index_t>(thin.total);  // total < threads × rows
  EXPECT_STREQ(choose_schedule(thin, 4).reason, "reduction-dominates");

  // No shared writes beats even a forced privatized request.
  WorkShape scatter = skewed;
  scatter.shared_writes = false;
  const Decision ds =
      choose_schedule(scatter, 4, ScheduleMode::kPrivatized);
  EXPECT_EQ(ds.schedule, Schedule::kOwner);
  EXPECT_STREQ(ds.reason, "no-shared-writes");

  // Forced modes override the cascade both ways.
  EXPECT_STREQ(choose_schedule(balanced, 4, ScheduleMode::kPrivatized).reason,
               "forced-privatized");
  EXPECT_STREQ(choose_schedule(skewed, 4, ScheduleMode::kOwner).reason,
               "forced-owner");
}

TEST(Schedule, OwnerTileCount) {
  EXPECT_EQ(owner_tile_count(1000, 4), 4 * kOwnerTilesPerThread);
  EXPECT_EQ(owner_tile_count(5, 4), 5);   // capped by groups
  EXPECT_EQ(owner_tile_count(0, 4), 1);   // never zero tiles
  EXPECT_EQ(owner_tile_count(1000, 1), kOwnerTilesPerThread);
}

// --- run_launch ------------------------------------------------------------

// A synthetic launch: group g owns row g of a groups × kRank output and
// holds size(g) items; item i adds vals[i] · (c + 1) into column c through
// the per-thread scratch. The values span twelve decades, so the addition
// order shows in the bits.
struct LaunchCase {
  static constexpr index_t kRank = 5;
  static constexpr std::size_t kScratch = 8;  // one 64-byte stride
  std::vector<nnz_t> ptr;
  std::vector<real_t> vals;

  LaunchCase() {
    Rng rng(2024);
    std::vector<nnz_t> w(64);
    for (auto& x : w) x = rng.next_below(40);
    w[7] = 900;  // a hub group the split plans cut
    ptr = prefix_from_weights(w);
    vals.resize(ptr.back());
    for (auto& v : vals)
      v = (rng.next_real() - 0.5) *
          std::pow(10.0, static_cast<double>(rng.next_below(12)) - 6.0);
  }
  nnz_t groups() const { return ptr.size() - 1; }
  nnz_t out_elems() const { return groups() * kRank; }
  WorkShape shape() const {
    return {.total = ptr.back(),
            .max_unit = 900,
            .units = groups(),
            .out_rows = static_cast<index_t>(groups()),
            .rank = kRank};
  }
  auto body(const TilePlan& plan) const {
    return [this, &plan](int tile, real_t* scratch, real_t* dst) {
      for_each_group_range(
          plan, tile, [&](nnz_t g) { return ptr[g + 1] - ptr[g]; },
          [&](nnz_t g, nnz_t begin, nnz_t end) {
            for (nnz_t i = ptr[g] + begin; i < ptr[g] + end; ++i)
              for (index_t c = 0; c < kRank; ++c) {
                scratch[c] = vals[i] * static_cast<real_t>(c + 1);
                dst[g * kRank + c] += scratch[c];
              }
          });
    };
  }
};

bool bitwise_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

TEST(Launch, OwnerMatchesSerialLoopAtEveryThreadCount) {
  const LaunchCase lc;
  // Serial reference: every tile of a one-thread owner plan, in order.
  const TilePlan serial_plan =
      tile_groups(lc.ptr, choose_schedule(lc.shape(), 1).tiles);
  std::vector<real_t> want(lc.out_elems(), 0);
  std::vector<real_t> scratch(LaunchCase::kScratch);
  for (int tile = 0; tile < serial_plan.tiles(); ++tile)
    lc.body(serial_plan)(tile, scratch.data(), want.data());

  for (const int threads : {1, 3, 4}) {
    const Decision d =
        choose_schedule(lc.shape(), threads, ScheduleMode::kOwner);
    ASSERT_EQ(d.schedule, Schedule::kOwner);
    const TilePlan plan = tile_groups(lc.ptr, d.tiles);
    Workspace ws;
    std::vector<real_t> got(lc.out_elems(), 0);
    EXPECT_EQ(run_launch(d, plan, ws, threads, LaunchCase::kScratch,
                         got.data(), got.size(), lc.body(plan)),
              0u)
        << "threads=" << threads;
    EXPECT_TRUE(bitwise_equal(got, want)) << "threads=" << threads;
  }
}

TEST(Launch, PrivatizedMatchesThreadOrderSum) {
  const LaunchCase lc;
  for (const int threads : {1, 3, 4}) {
    const Decision d =
        choose_schedule(lc.shape(), threads, ScheduleMode::kPrivatized);
    ASSERT_EQ(d.schedule, Schedule::kPrivatized);
    const TilePlan plan = tile_groups_split(lc.ptr, d.tiles);
    ASSERT_TRUE(plan.splits_groups);
    // Explicit reference: thread t runs tiles t, t + threads, ... into its
    // own zeroed partial; the output is +0 plus the partials in thread order.
    std::vector<std::vector<real_t>> partials(
        static_cast<std::size_t>(threads),
        std::vector<real_t>(lc.out_elems(), 0));
    std::vector<real_t> scratch(LaunchCase::kScratch);
    for (int t = 0; t < threads; ++t)
      for (int tile = t; tile < plan.tiles(); tile += threads)
        lc.body(plan)(tile, scratch.data(),
                      partials[static_cast<std::size_t>(t)].data());
    std::vector<real_t> want(lc.out_elems(), 0);
    for (const auto& part : partials)
      for (nnz_t i = 0; i < want.size(); ++i) want[i] += part[i];

    for (int run = 0; run < 2; ++run) {
      Workspace ws;
      std::vector<real_t> got(lc.out_elems(), 0);
      run_launch(d, plan, ws, threads, LaunchCase::kScratch, got.data(),
                 got.size(), lc.body(plan));
      EXPECT_TRUE(bitwise_equal(got, want))
          << "threads=" << threads << " run " << run;
    }
  }
}

TEST(Launch, PrivatizedRewritesEveryOutputElement) {
  const LaunchCase lc;
  for (const int threads : {1, 4}) {
    const Decision d =
        choose_schedule(lc.shape(), threads, ScheduleMode::kPrivatized);
    const TilePlan plan = tile_groups_split(lc.ptr, d.tiles);
    Workspace ws;
    std::vector<real_t> clean(lc.out_elems(), 0);
    std::vector<real_t> poisoned(lc.out_elems(),
                                 std::numeric_limits<real_t>::quiet_NaN());
    run_launch(d, plan, ws, threads, LaunchCase::kScratch, clean.data(),
               clean.size(), lc.body(plan));
    run_launch(d, plan, ws, threads, LaunchCase::kScratch, poisoned.data(),
               poisoned.size(), lc.body(plan));
    EXPECT_TRUE(bitwise_equal(poisoned, clean)) << "threads=" << threads;
  }
}

TEST(Launch, NegativeZeroPartialsCombineToPositiveZero) {
  // Every tile stores -0 over the whole partial. Zeroing the chunk and then
  // adding gives +0 + (-0) = +0; seeding the chunk with the first partial
  // would leave -0.
  const LaunchCase lc;
  for (const int threads : {1, 4}) {
    const Decision d =
        choose_schedule(lc.shape(), threads, ScheduleMode::kPrivatized);
    const TilePlan plan = tile_groups_split(lc.ptr, d.tiles);
    ASSERT_EQ(plan.tiles(), threads);
    Workspace ws;
    std::vector<real_t> out(lc.out_elems(), -0.0);
    const nnz_t n = out.size();
    run_launch(d, plan, ws, threads, LaunchCase::kScratch, out.data(), n,
               [n](int, real_t*, real_t* dst) { std::fill(dst, dst + n, -0.0); });
    for (nnz_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], 0.0);
      EXPECT_FALSE(std::signbit(out[i])) << "element " << i;
    }
  }
}

TEST(Launch, ReturnsCombineFlops) {
  const LaunchCase lc;
  for (const int threads : {1, 3, 4}) {
    for (const ScheduleMode mode :
         {ScheduleMode::kOwner, ScheduleMode::kPrivatized}) {
      const Decision d = choose_schedule(lc.shape(), threads, mode);
      const TilePlan plan = d.schedule == Schedule::kOwner
                                ? tile_groups(lc.ptr, d.tiles)
                                : tile_groups_split(lc.ptr, d.tiles);
      Workspace ws;
      std::vector<real_t> out(lc.out_elems(), 0);
      const std::uint64_t flops =
          run_launch(d, plan, ws, threads, LaunchCase::kScratch, out.data(),
                     out.size(), lc.body(plan));
      EXPECT_EQ(flops, d.schedule == Schedule::kOwner
                           ? 0
                           : reduction_flops(d.tiles,
                                             static_cast<index_t>(lc.groups()),
                                             LaunchCase::kRank))
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mdcp::sched
