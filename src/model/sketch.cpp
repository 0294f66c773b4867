#include "model/sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mdcp {

namespace {

// The exact count partitions the hashes into buckets of about 2^10 entries.
constexpr int kBucketEntriesLog2 = 10;
// KMV hashes nonzeros in blocks of this many, so it needs no O(nnz) buffer.
constexpr std::size_t kKmvBlock = 4096;

}  // namespace

std::uint64_t projection_hash(const CooTensor& t, nnz_t i, mode_set_t modes,
                              std::uint64_t seed) {
  std::uint64_t h = seed;
  for (mode_t m = 0; m < t.order(); ++m) {
    if (!mode_in(modes, m)) continue;
    h = splitmix64(h ^ (static_cast<std::uint64_t>(t.index(m, i)) |
                        (static_cast<std::uint64_t>(m) << 40)));
  }
  return h;
}

void projection_hashes(const CooTensor& t, mode_set_t modes, nnz_t first,
                       std::span<std::uint64_t> out, std::uint64_t seed) {
  MDCP_CHECK(first + out.size() <= t.nnz());
  std::fill(out.begin(), out.end(), seed);
  for (mode_t m = 0; m < t.order(); ++m) {
    if (!mode_in(modes, m)) continue;
    const auto idx = t.mode_indices(m).subspan(first, out.size());
    const std::uint64_t tag = static_cast<std::uint64_t>(m) << 40;
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j] = splitmix64(out[j] ^ (static_cast<std::uint64_t>(idx[j]) | tag));
  }
}

nnz_t count_distinct_hashes(std::span<const std::uint64_t> hashes) {
  DistinctCountScratch scratch;
  return count_distinct_hashes(hashes, scratch);
}

nnz_t count_distinct_hashes(std::span<const std::uint64_t> hashes,
                            DistinctCountScratch& scratch) {
  const std::size_t n = hashes.size();
  if (n == 0) return 0;

  // Counting-sort partition by the top `bits` bits. Equal values share a
  // bucket, so the per-bucket distinct counts sum to the exact total.
  // (h >> 1) >> (63 - bits) is h >> (64 - bits) without a shift by 64.
  const int bits = static_cast<int>(std::bit_width(n >> kBucketEntriesLog2));
  const auto bucket_of = [bits](std::uint64_t h) {
    return static_cast<std::size_t>((h >> 1) >> (63 - bits));
  };
  std::vector<std::size_t>& start = scratch.start;
  start.assign((std::size_t{1} << bits) + 1, 0);
  for (const std::uint64_t h : hashes) ++start[bucket_of(h) + 1];
  const std::size_t largest = *std::max_element(start.begin(), start.end());
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<std::uint64_t>& parted = scratch.parted;
  parted.resize(n);
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (const std::uint64_t h : hashes) parted[next[bucket_of(h)]++] = h;
  }

  // One linear-probing table (load ≤ 1/2) reused by every bucket; 0 marks an
  // empty slot, so a real hash of 0 is counted on the side. Each bucket
  // clears exactly the slots it filled: clearing only the home slots would
  // leave entries that spilled past them to pile up across buckets. So the
  // table is all 0 again on return, and a later call may use the first
  // `slots` entries of a larger one as they are.
  const std::size_t slots = std::bit_ceil(2 * largest);
  std::vector<std::uint64_t>& table = scratch.table;
  if (table.size() < slots) table.assign(slots, 0);
  std::vector<std::size_t>& filled = scratch.filled;
  filled.resize(largest);
  const std::size_t mask = slots - 1;
  nnz_t distinct = 0;
  bool saw_zero = false;
  for (std::size_t b = 0; b + 1 < start.size(); ++b) {
    std::size_t used = 0;
    for (std::size_t i = start[b]; i < start[b + 1]; ++i) {
      const std::uint64_t h = parted[i];
      if (h == 0) {
        saw_zero = true;
        continue;
      }
      std::size_t s = h & mask;
      while (table[s] != 0 && table[s] != h) s = (s + 1) & mask;
      if (table[s] == 0) {
        table[s] = h;
        filled[used++] = s;
      }
    }
    for (std::size_t i = 0; i < used; ++i) table[filled[i]] = 0;
    distinct += used;
  }
  return distinct + (saw_zero ? 1 : 0);
}

nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes) {
  DistinctCountScratch scratch;
  return exact_distinct_projections(t, modes, scratch);
}

nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes,
                                 DistinctCountScratch& scratch) {
  if (t.nnz() == 0) return 0;
  if ((modes & all_modes(t.order())) == 0) return 1;  // scalar projection
  scratch.hashes.assign(t.nnz(), 0);
  projection_hashes(t, modes, 0, scratch.hashes);
  return count_distinct_hashes(scratch.hashes, scratch);
}

nnz_t kmv_distinct_projections(const CooTensor& t, mode_set_t modes,
                               unsigned k, std::uint64_t seed) {
  MDCP_CHECK(k >= 2);
  if (t.nnz() == 0) return 0;
  if ((modes & all_modes(t.order())) == 0) return 1;

  // Ordered set of the k smallest *distinct* hashes seen. Duplicates must be
  // skipped, not inserted — otherwise copies of small hashes crowd out larger
  // distinct values and the estimate collapses.
  std::set<std::uint64_t> mins;
  std::array<std::uint64_t, kKmvBlock> block;
  for (nnz_t first = 0; first < t.nnz(); first += kKmvBlock) {
    const std::span<std::uint64_t> hashes(
        block.data(), std::min<nnz_t>(kKmvBlock, t.nnz() - first));
    projection_hashes(t, modes, first, hashes, seed);
    for (const std::uint64_t h : hashes) {
      if (mins.size() < k) {
        mins.insert(h);
      } else if (h < *mins.rbegin() && !mins.contains(h)) {
        mins.insert(h);
        mins.erase(std::prev(mins.end()));
      }
    }
  }

  if (mins.size() < k) return static_cast<nnz_t>(mins.size());  // saw them all
  const long double kth = static_cast<long double>(*mins.rbegin());
  MDCP_CHECK(kth > 0);
  const long double est =
      (static_cast<long double>(k) - 1) * 18446744073709551616.0L / kth;
  return static_cast<nnz_t>(std::min<long double>(
      est, static_cast<long double>(t.nnz())));
}

ProjectionCounter::ProjectionCounter(const CooTensor& tensor)
    : tensor_(tensor) {}

nnz_t ProjectionCounter::count(mode_set_t modes) {
  modes &= all_modes(tensor_.order());
  const auto it = cache_.find(modes);
  if (it != cache_.end()) return it->second;
  MDCP_TRACE_SPAN("tuner.sketch", "modes", static_cast<std::int64_t>(modes));
  obs::MetricsRegistry::instance().counter("tuner.sketch_passes").add();
  ++passes_;
  const nnz_t result = (tensor_.nnz() <= kExactProjectionThreshold)
                           ? exact_distinct_projections(tensor_, modes, scratch_)
                           : kmv_distinct_projections(tensor_, modes, kKmvK);
  cache_.emplace(modes, result);
  return result;
}

}  // namespace mdcp
