#include "model/sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {

namespace {

// The exact count partitions the hashes into buckets of about 2^10 entries.
constexpr int kBucketEntriesLog2 = 10;
// KMV hashes nonzeros in blocks of this many, so it needs no O(nnz) buffer.
constexpr std::size_t kKmvBlock = 4096;
// projection_hashes walks each chunk in blocks of this many nonzeros, so a
// block's hashes stay in L1 while every member mode updates them.
constexpr std::size_t kHashBlock = 2048;

// projection_hashes over one range, serially.
void hash_range(const CooTensor& t, mode_set_t modes, nnz_t first,
                std::span<std::uint64_t> out, std::uint64_t seed) {
  std::fill(out.begin(), out.end(), seed);
  for (mode_t m = 0; m < t.order(); ++m) {
    if (!mode_in(modes, m)) continue;
    const auto idx = t.mode_indices(m).subspan(first, out.size());
    const std::uint64_t tag = static_cast<std::uint64_t>(m) << 40;
    for (std::size_t j = 0; j < out.size(); ++j)
      out[j] = splitmix64(out[j] ^ (static_cast<std::uint64_t>(idx[j]) | tag));
  }
}

// Number of distinct indices of mode m: each chunk of nonzeros marks the
// slices it occupies in its own bitmap, then each chunk of words ORs the
// bitmaps and counts the bits.
nnz_t occupied_slices(const CooTensor& t, mode_t m, int parts,
                      std::vector<std::uint64_t>& bitmaps) {
  const std::size_t words = (std::size_t{t.dim(m)} + 63) / 64;
  bitmaps.assign(parts * words, 0);
  const auto idx = t.mode_indices(m);
  parallel_chunks(parts, [&](int c) {
    std::uint64_t* const own = bitmaps.data() + c * words;
    const Range r = chunk_range(t.nnz(), parts, c);
    for (nnz_t i = r.begin; i < r.end; ++i)
      own[idx[i] >> 6] |= std::uint64_t{1} << (idx[i] & 63);
  });
  std::vector<nnz_t> counts(parts, 0);
  parallel_chunks(parts, [&](int c) {
    const Range r = chunk_range(words, parts, c);
    nnz_t k = 0;
    for (nnz_t w = r.begin; w < r.end; ++w) {
      std::uint64_t any = 0;
      for (int q = 0; q < parts; ++q) any |= bitmaps[q * words + w];
      k += static_cast<nnz_t>(std::popcount(any));
    }
    counts[c] = k;
  });
  return std::accumulate(counts.begin(), counts.end(), nnz_t{0});
}

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
  const int parts = num_threads();
  parallel_chunks(parts, [&](int c) {
    const Range r = chunk_range(out.size(), parts, c);
    for (nnz_t b = r.begin; b < r.end; b += kHashBlock) {
      const nnz_t e = std::min<nnz_t>(r.end, b + kHashBlock);
      hash_range(t, modes, first + b, out.subspan(b, e - b), seed);
    }
  });
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
  // Each chunk of the hashes counts its buckets; the scatter offsets run
  // bucket-major, chunk-minor, so `parted` comes out the same for any chunk
  // count.
  const int bits = static_cast<int>(std::bit_width(n >> kBucketEntriesLog2));
  const auto bucket_of = [bits](std::uint64_t h) {
    return static_cast<std::size_t>((h >> 1) >> (63 - bits));
  };
  const std::size_t buckets = std::size_t{1} << bits;
  const int parts = num_threads();
  // A cache line of padding between the chunks' counters.
  const std::size_t stride = (buckets + 15) / 8 * 8;
  std::vector<std::size_t>& cursor = scratch.cursor;
  cursor.assign(parts * stride, 0);
  parallel_chunks(parts, [&](int c) {
    std::size_t* const count = cursor.data() + c * stride;
    const Range r = chunk_range(n, parts, c);
    for (nnz_t i = r.begin; i < r.end; ++i) ++count[bucket_of(hashes[i])];
  });
  std::vector<std::size_t>& start = scratch.start;
  start.resize(buckets + 1);
  std::size_t sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    start[b] = sum;
    for (int c = 0; c < parts; ++c) {
      std::size_t& slot = cursor[c * stride + b];
      const std::size_t count = slot;
      slot = sum;
      sum += count;
    }
  }
  start[buckets] = n;
  std::vector<std::uint64_t>& parted = scratch.parted;
  parted.resize(n);
  parallel_chunks(parts, [&](int c) {
    std::size_t* const next = cursor.data() + c * stride;
    const Range r = chunk_range(n, parts, c);
    for (nnz_t i = r.begin; i < r.end; ++i) {
      const std::uint64_t h = hashes[i];
      parted[next[bucket_of(h)]++] = h;
    }
  });

  // Each chunk counts a contiguous run of buckets holding about n / parts
  // hashes, with its own linear-probing table (load <= 1/2) sized by its
  // largest bucket and reused by each of its buckets. 0 marks an empty slot,
  // so a real hash of 0 is counted on the side. Each bucket clears exactly
  // the slots it filled: clearing only the home slots would leave entries
  // that spilled past them to pile up across buckets. So the tables are all
  // 0 again on return, and a later call may lay out its own in the same
  // array as it is. Every table is cut from one array allocated here.
  std::vector<std::size_t> first(parts + 1, buckets);  // per chunk: buckets
  std::vector<std::size_t> slot_at(parts + 1, 0);      // ... table slices
  std::vector<std::size_t> filled_at(parts + 1, 0);    // ... `filled` slices
  for (int c = 0; c < parts; ++c) {
    first[c] = static_cast<std::size_t>(
        std::lower_bound(start.begin(), start.end() - 1,
                         chunk_range(n, parts, c).begin) -
        start.begin());
  }
  for (int c = 0; c < parts; ++c) {
    std::size_t largest = 0;
    for (std::size_t b = first[c]; b < first[c + 1]; ++b)
      largest = std::max(largest, start[b + 1] - start[b]);
    slot_at[c + 1] = slot_at[c] + std::bit_ceil(2 * largest);
    filled_at[c + 1] = filled_at[c] + largest;
  }
  std::vector<std::uint64_t>& table = scratch.table;
  if (table.size() < slot_at[parts]) table.assign(slot_at[parts], 0);
  std::vector<std::size_t>& filled = scratch.filled;
  filled.resize(filled_at[parts]);
  std::vector<nnz_t> distinct(parts, 0);
  std::vector<std::uint8_t> saw_zero(parts, 0);
  parallel_chunks(parts, [&](int c) {
    std::uint64_t* const own = table.data() + slot_at[c];
    std::size_t* const used_slots = filled.data() + filled_at[c];
    const std::size_t mask = slot_at[c + 1] - slot_at[c] - 1;
    nnz_t found = 0;
    bool zero = false;
    for (std::size_t b = first[c]; b < first[c + 1]; ++b) {
      std::size_t used = 0;
      for (std::size_t i = start[b]; i < start[b + 1]; ++i) {
        const std::uint64_t h = parted[i];
        if (h == 0) {
          zero = true;
          continue;
        }
        std::size_t s = h & mask;
        while (own[s] != 0 && own[s] != h) s = (s + 1) & mask;
        if (own[s] == 0) {
          own[s] = h;
          used_slots[used++] = s;
        }
      }
      for (std::size_t i = 0; i < used; ++i) own[used_slots[i]] = 0;
      found += used;
    }
    distinct[c] = found;
    saw_zero[c] = zero;
  });
  const bool any_zero =
      std::find(saw_zero.begin(), saw_zero.end(), 1) != saw_zero.end();
  return std::accumulate(distinct.begin(), distinct.end(), nnz_t{0}) +
         (any_zero ? 1 : 0);
}

nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes) {
  DistinctCountScratch scratch;
  return exact_distinct_projections(t, modes, scratch);
}

nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes,
                                 DistinctCountScratch& scratch) {
  if (t.nnz() == 0) return 0;
  modes &= all_modes(t.order());
  if (modes == 0) return 1;  // scalar projection
  const int parts = num_threads();
  if (std::has_single_bit(modes)) {
    // Distinct hashes of one mode are distinct indices (splitmix64 is a
    // bijection), so the occupied slices give the same count.
    const auto m = static_cast<mode_t>(std::countr_zero(modes));
    const std::size_t bitmap_bits =
        parts * ((std::size_t{t.dim(m)} + 63) / 64 * 64);
    if (bitmap_bits <= kOccupancyBitsPerNonzero * t.nnz())
      return occupied_slices(t, m, parts, scratch.bitmaps);
  }
  scratch.hashes.resize(t.nnz());  // projection_hashes writes every entry
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
    hash_range(t, modes, first, hashes, seed);
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
