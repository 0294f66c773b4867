// Distinct-count estimation for projected index tuples.
//
// The cost model needs |π_S(nnz(X))| — the number of distinct tuples when
// the nonzeros are projected onto a mode subset S — for every candidate tree
// node. This equals the tuple count of the corresponding memoized
// intermediate, so it determines both the flops and the memory of a
// strategy. Computing it by sorting (as the symbolic pass does) would cost
// as much as building the tree; instead we hash every projected tuple and
// either count distinct hashes exactly (small tensors: a counting-sort
// partition of the hashes by their top bits, then one small hash table per
// bucket) or use a k-minimum-values (KMV) sketch (large tensors) — O(nnz)
// per subset, with results cached per subset across all candidate
// strategies. The exact count of a single mode reads a slice-occupancy
// bitmap instead of hashing. The exact passes split the nonzeros into
// num_threads() contiguous chunks and combine them in chunk order, so every
// count is the same at any thread count.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "util/types.hpp"

namespace mdcp {

/// ProjectionCounter counts exactly up to this many nonzeros, by KMV above.
inline constexpr nnz_t kExactProjectionThreshold = nnz_t{1} << 21;
/// ProjectionCounter's KMV sketch size (relative error ~1/√k ≈ 3%).
inline constexpr unsigned kKmvK = 1024;
/// The exact count of a single mode m uses one occupancy bitmap of dim(m)
/// bits per thread while the bitmaps hold at most this many bits per
/// nonzero, that is no more memory than one hash array; it hashes above.
inline constexpr std::size_t kOccupancyBitsPerNonzero = 64;
/// Default seed of the projection hashes.
inline constexpr std::uint64_t kProjectionSeed = 0x9e3779b9ULL;

/// 64-bit hash of the projection of nonzero i onto `modes`: splitmix64 of
/// (index | m << 40) chained over the member modes m in ascending order.
std::uint64_t projection_hash(const CooTensor& t, nnz_t i, mode_set_t modes,
                              std::uint64_t seed = kProjectionSeed);

/// out[j] = projection_hash(t, first + j, modes, seed) for every j, computed
/// mode by mode over the member modes' contiguous index arrays, one chunk
/// of `out` per thread.
void projection_hashes(const CooTensor& t, mode_set_t modes, nnz_t first,
                       std::span<std::uint64_t> out,
                       std::uint64_t seed = kProjectionSeed);

/// Buffers of the exact distinct count. A caller that counts many subsets
/// of one tensor keeps one of these, so each pass reuses the two nnz-long
/// hash arrays and the probe tables instead of faulting in fresh pages.
/// Every buffer, the per-thread ones included, is allocated by the calling
/// thread.
struct DistinctCountScratch {
  std::vector<std::uint64_t> hashes;   ///< projection hashes (exact pass)
  std::vector<std::uint64_t> parted;   ///< hashes partitioned by bucket
  std::vector<std::uint64_t> table;    ///< probe tables; all 0 between calls
  std::vector<std::size_t> start;      ///< bucket offsets into `parted`
  std::vector<std::size_t> cursor;     ///< per chunk: bucket counts, cursors
  std::vector<std::size_t> filled;     ///< table slots one bucket filled
  std::vector<std::uint64_t> bitmaps;  ///< per chunk: occupied slices
};

/// Exact number of distinct values in `hashes`, in O(n): a counting-sort
/// partition by the top bits into buckets of about 1k entries, then each
/// thread counts a run of buckets with its own reused open-addressing table.
nnz_t count_distinct_hashes(std::span<const std::uint64_t> hashes);

/// The same count in the caller's buffers; `hashes` may be scratch.hashes.
nnz_t count_distinct_hashes(std::span<const std::uint64_t> hashes,
                            DistinctCountScratch& scratch);

/// Exact distinct-projection count: count_distinct_hashes over every
/// nonzero's projection_hash. (Collisions would undercount with probability
/// ~nnz²/2⁶⁴ — negligible at any realistic size.) A single mode's count is
/// its number of occupied slices, read from bitmaps (see
/// kOccupancyBitsPerNonzero); it equals the hash count, since one mode's
/// distinct indices hash to distinct values.
nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes);

/// The same count in the caller's buffers.
nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes,
                                 DistinctCountScratch& scratch);

/// KMV estimate of the distinct-projection count using the k smallest
/// distinct hashes: D ≈ (k−1)·2⁶⁴ / h_(k). Relative error ~1/√k.
nnz_t kmv_distinct_projections(const CooTensor& t, mode_set_t modes,
                               unsigned k = kKmvK,
                               std::uint64_t seed = kProjectionSeed);

/// Caching facade: exact up to kExactProjectionThreshold nonzeros, KMV
/// above. Results are memoized per mode subset, so enumerating many tree
/// shapes that share nodes (e.g. all BDT orderings) costs one pass per
/// subset. Each pass is a `tuner.sketch` span and bumps the
/// `tuner.sketch_passes` counter.
class ProjectionCounter {
 public:
  explicit ProjectionCounter(const CooTensor& tensor);

  /// Estimated (or exact) number of distinct projected tuples onto `modes`.
  nnz_t count(mode_set_t modes);

  /// Number of cache misses so far (test/diagnostic hook).
  std::size_t passes() const noexcept { return passes_; }

 private:
  const CooTensor& tensor_;
  std::unordered_map<mode_set_t, nnz_t> cache_;
  std::size_t passes_ = 0;
  DistinctCountScratch scratch_;  // reused by every exact pass
};

}  // namespace mdcp
