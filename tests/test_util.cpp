#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/span_util.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

namespace mdcp {
namespace {

TEST(Types, AllModesMask) {
  EXPECT_EQ(all_modes(0), 0u);
  EXPECT_EQ(all_modes(1), 1u);
  EXPECT_EQ(all_modes(3), 0b111u);
  EXPECT_EQ(mode_count(all_modes(7)), 7);
}

TEST(Types, ModeIn) {
  const mode_set_t s = 0b1010;
  EXPECT_FALSE(mode_in(s, 0));
  EXPECT_TRUE(mode_in(s, 1));
  EXPECT_FALSE(mode_in(s, 2));
  EXPECT_TRUE(mode_in(s, 3));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const real_t x = rng.next_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 1000);
    EXPECT_LT(c, n / 10 + 1000);
  }
}

TEST(Rng, NormalMomentsReasonable) {
  Rng rng(13);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.next_normal());
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Zipf, SamplesWithinUniverse) {
  Rng rng(17);
  ZipfSampler z(100, 1.2);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.sample(rng), 100u);
}

TEST(Zipf, SkewFavorsSmallRanks) {
  Rng rng(19);
  ZipfSampler z(1000, 1.5);
  int low = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) low += z.sample(rng) < 10;
  // With exponent 1.5, the first 10 ranks carry well over a third of mass.
  EXPECT_GT(low, n / 3);
}

TEST(Zipf, ZeroExponentIsUniform) {
  Rng rng(23);
  ZipfSampler z(50, 0.0);
  std::vector<int> counts(50, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng)];
  for (int c : counts) {
    EXPECT_GT(c, n / 50 / 2);
    EXPECT_LT(c, n / 50 * 2);
  }
}

TEST(Zipf, RejectsEmptyUniverse) { EXPECT_THROW(ZipfSampler(0, 1.0), error); }

TEST(SplitMix, IsDeterministicAndMixes) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Parallel, ChunkRangeCoversAll) {
  for (nnz_t n : {0ULL, 1ULL, 7ULL, 100ULL, 101ULL}) {
    for (int parts : {1, 2, 3, 7, 16}) {
      nnz_t total = 0;
      nnz_t prev_end = 0;
      for (int p = 0; p < parts; ++p) {
        const auto r = chunk_range(n, parts, p);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_LE(r.begin, r.end);
        total += r.end - r.begin;
        prev_end = r.end;
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(Parallel, ChunkSizesBalanced) {
  const auto a = chunk_range(10, 3, 0);
  const auto b = chunk_range(10, 3, 1);
  const auto c = chunk_range(10, 3, 2);
  EXPECT_EQ(a.end - a.begin, 4u);
  EXPECT_EQ(b.end - b.begin, 3u);
  EXPECT_EQ(c.end - c.begin, 3u);
}

TEST(Parallel, ParallelForVisitsEachOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(1000, [&](nnz_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, SetNumThreadsReflected) {
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
}

TEST(Parallel, DynamicGrainHonored) {
  // Regression: parallel_for_dynamic used to hardcode schedule(dynamic, 64)
  // and silently ignore its `grain` argument. OpenMP dynamic scheduling
  // hands out contiguous chunks of exactly `grain` iterations (aligned to
  // multiples of grain, last chunk short), so every aligned block must be
  // executed by a single thread.
  set_num_threads(4);
  constexpr nnz_t n = 1000;
  constexpr nnz_t grain = 128;  // > the old hardcoded 64
  std::vector<int> owner(n, -1);
  parallel_for_dynamic(
      n, [&](nnz_t i) { owner[i] = thread_id(); }, grain);
  set_num_threads(1);
  for (nnz_t b = 0; b < n; b += grain) {
    const nnz_t end = std::min(b + grain, n);
    for (nnz_t i = b; i < end; ++i) {
      ASSERT_GE(owner[i], 0) << "iteration " << i << " never ran";
      EXPECT_EQ(owner[i], owner[b])
          << "grain-" << grain << " block at " << b << " split across threads";
    }
  }
}

TEST(Parallel, ChunkedCoversAllOnceWithDisjointRanges) {
  set_num_threads(3);
  constexpr nnz_t n = 100;
  std::vector<int> hits(n, 0);
  parallel_for_chunked(n, [&](int tid, Range r) {
    EXPECT_GE(tid, 0);
    EXPECT_LE(r.begin, r.end);
    // Ranges are disjoint per thread, so unsynchronized writes are safe.
    for (nnz_t i = r.begin; i < r.end; ++i) ++hits[i];
  });
  set_num_threads(1);
  for (nnz_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(Parallel, HelpersRunEveryThreadUnderFlushSubnormals) {
#if !defined(__SSE2__)
  GTEST_SKIP() << "no MXCSR on this target";
#endif
  set_num_threads(4);
  // Cleared on every team thread first, so the helpers must set them.
  mdcp::testing::clear_flush_bits_everywhere();
  using mdcp::testing::mxcsr_controls;
  const unsigned caller = mxcsr_controls();
  constexpr nnz_t n = 64;
  std::vector<unsigned> seen(n, 0);
  const auto flush_bits = [] {
    return mxcsr_controls() & kFlushSubnormalBits;
  };
  parallel_for(n, [&](nnz_t i) { seen[i] = flush_bits(); });
  for (const unsigned bits : seen) EXPECT_EQ(bits, kFlushSubnormalBits);
  std::fill(seen.begin(), seen.end(), 0u);
  parallel_for_dynamic(n, [&](nnz_t i) { seen[i] = flush_bits(); }, 4);
  for (const unsigned bits : seen) EXPECT_EQ(bits, kFlushSubnormalBits);
  std::fill(seen.begin(), seen.end(), 0u);
  parallel_for_chunked(n, [&](int, Range r) {
    for (nnz_t i = r.begin; i < r.end; ++i) seen[i] = flush_bits();
  });
  for (const unsigned bits : seen) EXPECT_EQ(bits, kFlushSubnormalBits);
  EXPECT_EQ(mxcsr_controls(), caller);
  set_num_threads(1);
}

TEST(Parallel, ThreadScopeRestoresOnExit) {
  set_num_threads(4);
  {
    ThreadScope scope(2);
    EXPECT_EQ(num_threads(), 2);
  }
  EXPECT_EQ(num_threads(), 4);
  {
    ThreadScope noop(0);  // 0 = inherit, must not disturb the setting
    EXPECT_EQ(num_threads(), 4);
  }
  EXPECT_EQ(num_threads(), 4);
  set_num_threads(1);
}

TEST(Workspace, ScratchIsAlignedAndSized) {
  Workspace ws;
  const auto s = ws.thread_scratch_bytes(100);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) %
                Workspace::kAlignment,
            0u);
  const auto d = ws.thread_scratch<double>(7);
  EXPECT_EQ(d.size(), 7u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) %
                Workspace::kAlignment,
            0u);
}

TEST(Workspace, SlabIsReusedNotReallocated) {
  Workspace ws;
  const auto big = ws.thread_scratch_bytes(4096);
  const std::size_t after_big = ws.allocated_bytes();
  // A smaller (and an equal) request must reuse the same slab.
  const auto small = ws.thread_scratch_bytes(64);
  EXPECT_EQ(small.data(), big.data());
  EXPECT_EQ(ws.allocated_bytes(), after_big);
  const auto same = ws.thread_scratch_bytes(4096);
  EXPECT_EQ(same.data(), big.data());
  EXPECT_EQ(ws.allocated_bytes(), after_big);
}

TEST(Workspace, GrowthTracksTotalsAndPeak) {
  Workspace ws;
  EXPECT_EQ(ws.allocated_bytes(), 0u);
  (void)ws.thread_scratch_bytes(128);
  const std::size_t first = ws.allocated_bytes();
  EXPECT_GE(first, 128u);
  EXPECT_EQ(ws.peak_bytes(), first);
  (void)ws.thread_scratch_bytes(100000);
  EXPECT_GE(ws.allocated_bytes(), 100000u);
  EXPECT_EQ(ws.peak_bytes(), ws.allocated_bytes());
}

TEST(Workspace, ReservePreGrowsAllSlabs) {
  Workspace ws;
  ws.reserve(4, 1024);
  EXPECT_GE(ws.allocated_bytes(), 4u * 1024u);
  // Growing an already-large-enough slab is a no-op.
  const std::size_t before = ws.allocated_bytes();
  ws.reserve(4, 512);
  EXPECT_EQ(ws.allocated_bytes(), before);
}

TEST(Workspace, ReleaseFreesAndResetPeakRebaselines) {
  Workspace ws;
  (void)ws.thread_scratch_bytes(2048);
  EXPECT_GT(ws.allocated_bytes(), 0u);
  const std::size_t peak = ws.peak_bytes();
  ws.release();
  EXPECT_EQ(ws.allocated_bytes(), 0u);
  EXPECT_EQ(ws.peak_bytes(), peak);  // the high-water mark survives release
  ws.reset_peak();
  EXPECT_EQ(ws.peak_bytes(), 0u);
}

TEST(Workspace, ZeroByteRequestIsEmpty) {
  Workspace ws;
  EXPECT_TRUE(ws.thread_scratch_bytes(0).empty());
  EXPECT_EQ(ws.allocated_bytes(), 0u);
}

TEST(KernelStats, SinceComputesDeltas) {
  KernelStats a;
  a.symbolic_seconds = 1.0;
  a.numeric_seconds = 2.0;
  a.prepare_calls = 1;
  a.compute_calls = 10;
  a.flops = 1000;
  a.peak_scratch_bytes = 4096;
  KernelStats b = a;
  b.numeric_seconds = 5.0;
  b.compute_calls = 25;
  b.flops = 3000;
  const KernelStats d = b.since(a);
  EXPECT_DOUBLE_EQ(d.symbolic_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.numeric_seconds, 3.0);
  EXPECT_EQ(d.prepare_calls, 0u);
  EXPECT_EQ(d.compute_calls, 15u);
  EXPECT_EQ(d.flops, 2000u);
  EXPECT_EQ(d.peak_scratch_bytes, 4096u);  // peaks carry over, not subtract
}

TEST(SpanUtil, ExclusiveScan) {
  const std::vector<nnz_t> in{3, 0, 2, 5};
  const auto out = exclusive_scan_with_total(std::span<const nnz_t>{in});
  const std::vector<nnz_t> expect{0, 3, 3, 5, 10};
  EXPECT_EQ(out, expect);
}

TEST(SpanUtil, IdentityPermutation) {
  const auto p = identity_permutation(4);
  const std::vector<nnz_t> expect{0, 1, 2, 3};
  EXPECT_EQ(p, expect);
}

TEST(Error, CheckMacroThrowsWithMessage) {
  try {
    MDCP_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace mdcp
