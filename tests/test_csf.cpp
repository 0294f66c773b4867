#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "csf/csf_mttkrp.hpp"
#include "csf/csf_tensor.hpp"
#include "mttkrp/engine.hpp"
#include "tensor/generator.hpp"
#include "tensor/stats.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace mdcp {
namespace {

using mdcp::testing::random_factors;

CooTensor hand_tensor() {
  // 2x2x2: nonzeros (0,0,0) (0,0,1) (0,1,0) (1,1,1).
  CooTensor t(shape_t{2, 2, 2});
  t.push_back(std::array<index_t, 3>{0, 0, 0}, 1.0);
  t.push_back(std::array<index_t, 3>{0, 0, 1}, 2.0);
  t.push_back(std::array<index_t, 3>{0, 1, 0}, 3.0);
  t.push_back(std::array<index_t, 3>{1, 1, 1}, 4.0);
  return t;
}

TEST(CsfTensor, HandExampleStructure) {
  const auto t = hand_tensor();
  const CsfTensor csf(t, {0, 1, 2});
  // Root fibers: indices 0 and 1 in mode 0.
  ASSERT_EQ(csf.num_fibers(0), 2u);
  EXPECT_EQ(csf.fids(0)[0], 0u);
  EXPECT_EQ(csf.fids(0)[1], 1u);
  // Level 1: slices (0,0),(0,1),(1,1) → 3 fibers.
  ASSERT_EQ(csf.num_fibers(1), 3u);
  EXPECT_EQ(csf.fids(1)[0], 0u);
  EXPECT_EQ(csf.fids(1)[1], 1u);
  EXPECT_EQ(csf.fids(1)[2], 1u);
  // Leaves: 4 nonzeros.
  ASSERT_EQ(csf.num_fibers(2), 4u);
  EXPECT_EQ(csf.nnz(), 4u);
  // Root fptr: slice 0 owns fibers [0,2), slice 1 owns [2,3).
  EXPECT_EQ(csf.fptr(0)[0], 0u);
  EXPECT_EQ(csf.fptr(0)[1], 2u);
  EXPECT_EQ(csf.fptr(0)[2], 3u);
  // Level-1 fptr: (0,0)→2 leaves, (0,1)→1, (1,1)→1.
  EXPECT_EQ(csf.fptr(1)[1] - csf.fptr(1)[0], 2u);
  EXPECT_EQ(csf.fptr(1)[2] - csf.fptr(1)[1], 1u);
  EXPECT_EQ(csf.fptr(1)[3] - csf.fptr(1)[2], 1u);
  // Values follow the sorted tuple order.
  EXPECT_DOUBLE_EQ(csf.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(csf.values()[3], 4.0);
}

TEST(CsfTensor, FiberCountsMatchPrefixStatistics) {
  const auto t = generate_zipf(shape_t{80, 60, 40, 20}, 4000, 1.1, 17);
  const std::vector<mode_t> order{3, 1, 0, 2};
  const CsfTensor csf(t, order);
  const auto fibers = prefix_fiber_counts(t, order);
  for (mode_t l = 0; l < t.order(); ++l)
    EXPECT_EQ(csf.num_fibers(l), fibers[l]) << "level " << l;
}

TEST(CsfTensor, RejectsNonPermutationOrder) {
  const auto t = hand_tensor();
  EXPECT_THROW(CsfTensor(t, {0, 0, 2}), error);
  EXPECT_THROW(CsfTensor(t, {0, 1}), error);
}

TEST(CsfTensor, RejectsDuplicateCoordinates) {
  CooTensor t(shape_t{2, 2});
  t.push_back(std::array<index_t, 2>{0, 0}, 1.0);
  t.push_back(std::array<index_t, 2>{0, 0}, 2.0);
  EXPECT_THROW(CsfTensor(t, {0, 1}), error);
}

TEST(CsfTensor, DefaultOrderRootFirstThenAscendingDims) {
  const auto t = generate_uniform(shape_t{100, 10, 50}, 200, 3);
  const auto order = CsfTensor::default_order(t, 2);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);  // dim 10 before dim 100
  EXPECT_EQ(order[2], 0);
}

TEST(CsfTensor, MemoryBytesPositiveAndSane) {
  const auto t = generate_uniform(shape_t{50, 50, 50}, 1000, 5);
  const CsfTensor csf(t, {0, 1, 2});
  EXPECT_GT(csf.memory_bytes(), t.nnz() * sizeof(real_t));
  EXPECT_NE(csf.summary().find("csf"), std::string::npos);
}

TEST(CsfMttkrp, RootModeMatchesReference) {
  const auto t = generate_uniform(shape_t{30, 40, 50}, 2000, 7);
  const auto factors = random_factors(t, 8, 99);
  // The engine roots mode m's CSF at m, in CsfTensor::default_order.
  CsfMttkrpEngine engine(t);
  for (mode_t root = 0; root < 3; ++root) {
    ASSERT_EQ(engine.csf_for_mode(root).mode_order(),
              CsfTensor::default_order(t, root));
    Matrix got, want;
    engine.compute(root, factors, got);
    mttkrp_reference(t, factors, root, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9) << "root " << root;
  }
}

TEST(CsfMttkrp, EngineAllModes) {
  const auto t = generate_zipf(shape_t{20, 30, 40, 50}, 3000, 1.0, 11);
  CsfMttkrpEngine engine(t);
  const auto factors = random_factors(t, 6, 42);
  for (mode_t m = 0; m < t.order(); ++m) {
    Matrix got, want;
    engine.compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9) << "mode " << m;
  }
  EXPECT_EQ(engine.name(), "csf");
  EXPECT_GT(engine.memory_bytes(), 0u);
}

TEST(CsfMttkrp, BothSchedulesMatchReferenceAndRepeatBitwise) {
  // Zipf hub roots: the privatized launch cuts one root fiber's level-1
  // subtrees across four threads' partials.
  const auto t = generate_zipf(shape_t{40, 300, 400, 50}, 20000, 1.4, 17);
  const auto factors = random_factors(t, 8, 31);
  for (const ScheduleMode sched :
       {ScheduleMode::kOwner, ScheduleMode::kPrivatized}) {
    KernelContext ctx;
    ctx.threads = 4;
    ctx.sched = sched;
    CsfMttkrpEngine engine(t, ctx);
    for (mode_t m = 0; m < t.order(); ++m) {
      Matrix got, again, want;
      engine.compute(m, factors, got);
      engine.compute(m, factors, again);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9) << "mode " << m;
      EXPECT_EQ(Matrix::max_abs_diff(got, again), 0.0) << "mode " << m;
    }
    EXPECT_GT(sched == ScheduleMode::kOwner ? engine.stats().owner_launches
                                            : engine.stats().privatized_launches,
              0u);
  }
}

TEST(CsfMttkrp, Order2Works) {
  const auto t = generate_uniform(shape_t{25, 35}, 300, 13);
  CsfMttkrpEngine engine(t);
  const auto factors = random_factors(t, 4, 5);
  Matrix got, want;
  engine.compute(1, factors, got);
  mttkrp_reference(t, factors, 1, want);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-10);
}

}  // namespace
}  // namespace mdcp
