// ALTO-style linearized MTTKRP engine.
//
// Every nonzero's coordinate tuple is packed into ONE integer key: mode m
// owns a contiguous bit-field of ceil(log2(dim_m)) bits, laid out with mode
// 0 in the most significant position. Integer comparison of keys is then
// exactly lexicographic comparison of coordinate tuples, so a single sort of
// the key stream replaces the per-mode permutations plain COO keeps, and the
// per-nonzero index memory shrinks from order × 4 bytes to 8 (or 16 when the
// shape product needs more than 64 bits).
//
// This is the Adaptive Linearized Tensor Order representation of
// "Accelerating Sparse Tensor Decomposition Using Adaptive Linearized
// Representation" (PAPERS.md, arXiv:2403.06348), in its MTTKRP-engine form:
//
//   * AltoCodec    — the bit-field layout: sizes, shifts, encode/decode with
//                    a 64-bit fast path and a portable 128-bit fallback.
//                    Shapes with a zero-sized mode or needing more than 128
//                    bits are rejected at construction (mdcp::error), and
//                    the field arithmetic never shifts a 64-bit lane by 64 —
//                    the classic shift-by-width UB when the budget lands on
//                    exactly 64 bits (zero-width fields decode to 0 without
//                    touching the key).
//   * alto_partition — a recursive partitioner splitting the sorted key
//                    stream into cache-fitting intervals. Each partition
//                    records tight per-mode index ranges [lo, hi]; splitting
//                    recurses (midpoint by nnz) until the dense-accumulator
//                    footprint Σ_m (hi−lo+1) × padded_rank × 8 fits a cache
//                    budget or the interval is small. Partitions are
//                    disjoint, cover all nonzeros, and are independent of
//                    the thread count.
//   * AltoMttkrpEngine — the engine. Mode 0 reads the stream in place (keys
//                    sorted ⇒ grouped by the most significant field) with
//                    the same owner/privatized schedules as the COO engine.
//                    For every other mode, the owner-computes path gives
//                    each tight-range partition a private dense accumulator
//                    over its [lo, hi] row window and merges the windows
//                    into the output in ascending partition order; wide-
//                    range ("scattered") partitions, whose windows would
//                    dwarf their nonzero count, are instead merged directly
//                    into the output under row ownership — each thread
//                    scans them and accumulates only the rows of its chunk.
//                    Both phases are race-free and bitwise deterministic
//                    across thread counts, because the partition geometry
//                    and the per-row accumulation order never depend on
//                    threads. The
//                    privatized path falls back to per-thread full-output
//                    slabs combined in fixed thread order (sched/reduce.hpp:
//                    bitwise at a fixed count, 1e-12-class drift across
//                    counts). Rank loops route through the shared mdcp::mk
//                    microkernel cascade; all scratch comes from the
//                    Workspace arena, so the memory budget is enforced and a
//                    violation degrades through the tuner chain.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mttkrp/engine.hpp"
#include "mttkrp/microkernel.hpp"
#include "sched/partition.hpp"
#include "util/error.hpp"

namespace mdcp {

class ProjectionCounter;

/// Portable 128-bit linearization key for shapes whose bit budget exceeds
/// 64. Ordering is numeric (hi first), which — with mode 0 packed most
/// significant — is lexicographic tuple order, same as the 64-bit path.
struct AltoKey128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const AltoKey128&, const AltoKey128&) = default;
  friend bool operator<(const AltoKey128& a, const AltoKey128& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Bit-field layout of one linearized shape: per-mode field widths and
/// shifts, with encode/extract/decode for both key widths.
class AltoCodec {
 public:
  AltoCodec() = default;

  /// Builds the layout for `shape`. Throws mdcp::error when a mode has size
  /// zero (nothing is encodable and the field arithmetic would be ill-
  /// defined) or when the total bit budget exceeds 128.
  explicit AltoCodec(const shape_t& shape);

  /// Bits needed to store indices [0, dim): ceil(log2(dim)), i.e. 0 for a
  /// size-1 mode. Throws mdcp::error for dim == 0.
  static index_t bits_for_dim(index_t dim);

  mode_t order() const noexcept { return static_cast<mode_t>(bits_.size()); }
  const shape_t& shape() const noexcept { return shape_; }
  index_t mode_bits(mode_t m) const { return bits_.at(m); }
  /// Shift of mode m's field from the least significant bit.
  index_t mode_shift(mode_t m) const { return shift_.at(m); }
  index_t total_bits() const noexcept { return total_bits_; }
  /// True when every key fits the 64-bit fast path (total_bits() <= 64).
  bool fits64() const noexcept { return total_bits_ <= 64; }

  std::uint64_t encode64(std::span<const index_t> coords) const;
  AltoKey128 encode128(std::span<const index_t> coords) const;

  index_t extract(std::uint64_t key, mode_t m) const {
    const index_t bits = bits_[m];
    if (bits == 0) return 0;  // zero-width field: no shift, no mask
    return static_cast<index_t>((key >> shift_[m]) &
                                ((std::uint64_t{1} << bits) - 1));
  }
  index_t extract(AltoKey128 key, mode_t m) const {
    const index_t bits = bits_[m];
    if (bits == 0) return 0;
    const index_t s = shift_[m];
    std::uint64_t v;
    if (s >= 64) {
      v = key.hi >> (s - 64);
    } else {
      v = key.lo >> s;
      // A field straddling the 64-bit seam has s in [33, 63] (fields are at
      // most 32 bits wide), so the complementary shift below is in [1, 31].
      if (s + bits > 64) v |= key.hi << (64 - s);
    }
    return static_cast<index_t>(v & ((std::uint64_t{1} << bits) - 1));
  }

  void decode(std::uint64_t key, std::span<index_t> out) const {
    for (mode_t m = 0; m < order(); ++m) out[m] = extract(key, m);
  }
  void decode(AltoKey128 key, std::span<index_t> out) const {
    for (mode_t m = 0; m < order(); ++m) out[m] = extract(key, m);
  }

 private:
  shape_t shape_;
  std::vector<index_t> bits_;   ///< field width per mode (≤ 32)
  std::vector<index_t> shift_;  ///< field shift from the LSB per mode
  index_t total_bits_ = 0;
};

/// One interval of the sorted linearized stream: nonzeros [begin, end) and
/// the tight (inclusive) per-mode index range they touch.
struct AltoPartition {
  nnz_t begin = 0;
  nnz_t end = 0;
  shape_t lo;  ///< per-mode minimum index present in the interval
  shape_t hi;  ///< per-mode maximum index present in the interval
};

/// Dense-accumulator cache budget one partition may claim (per mode, at the
/// padded rank) before the partitioner splits it further.
inline constexpr std::size_t kAltoPartitionBudgetBytes = std::size_t{1} << 20;

/// Intervals below this nonzero count are never split further, bounding the
/// partition directory and the recursion depth.
inline constexpr nnz_t kAltoMinPartitionNnz = 4096;

/// Ceiling on the combined dense-window bytes the owner-computes path may
/// carve from the arena in one compute(). Partitions past it — and any
/// partition whose own window for the output mode exceeds the per-partition
/// budget (sparse-but-wide intervals, where splitting cannot shrink the
/// range) — take the scattered path instead: their rows merge directly into
/// the output under row ownership, costing no window memory at all.
inline constexpr std::size_t kAltoOwnerWindowCapBytes = std::size_t{64} << 20;

namespace detail {

template <typename Key>
void alto_partition_rec(const AltoCodec& codec, std::span<const Key> keys,
                        nnz_t begin, nnz_t end, index_t padded_rank,
                        std::size_t budget_bytes, nnz_t min_nnz,
                        std::vector<AltoPartition>& out) {
  const mode_t order = codec.order();
  AltoPartition p;
  p.begin = begin;
  p.end = end;
  p.lo.assign(order, 0);
  p.hi.assign(order, 0);
  for (mode_t m = 0; m < order; ++m) {
    p.lo[m] = codec.extract(keys[begin], m);
    p.hi[m] = p.lo[m];
  }
  std::size_t footprint = 0;
  for (nnz_t i = begin + 1; i < end; ++i)
    for (mode_t m = 0; m < order; ++m) {
      const index_t v = codec.extract(keys[i], m);
      if (v < p.lo[m]) p.lo[m] = v;
      if (v > p.hi[m]) p.hi[m] = v;
    }
  for (mode_t m = 0; m < order; ++m)
    footprint += static_cast<std::size_t>(p.hi[m] - p.lo[m] + 1) *
                 padded_rank * sizeof(real_t);
  // Stop on a cache-fitting footprint or at the min-nnz floor. An interval
  // can sit over budget at the floor when its nonzeros are scattered across
  // huge modes — splitting such an interval is counterproductive (both
  // halves keep nearly the full range, multiplying total window area), so
  // the engine's owner path handles wide partitions without dense windows
  // instead (see kAltoOwnerWindowCapBytes).
  if (footprint <= budget_bytes || end - begin <= min_nnz) {
    out.push_back(std::move(p));
    return;
  }
  const nnz_t mid = begin + (end - begin) / 2;
  alto_partition_rec(codec, keys, begin, mid, padded_rank, budget_bytes,
                     min_nnz, out);
  alto_partition_rec(codec, keys, mid, end, padded_rank, budget_bytes,
                     min_nnz, out);
}

}  // namespace detail

/// Splits the sorted key stream into cache-fitting intervals with tight
/// per-mode ranges. The result is disjoint, covers [0, keys.size()), and
/// depends only on the keys and parameters — never on the thread count.
/// `rank` sizes the accumulator footprint estimate (0 = a nominal 16).
template <typename Key>
std::vector<AltoPartition> alto_partition(
    const AltoCodec& codec, std::span<const Key> keys, index_t rank,
    std::size_t budget_bytes = kAltoPartitionBudgetBytes,
    nnz_t min_nnz = kAltoMinPartitionNnz) {
  std::vector<AltoPartition> out;
  if (keys.empty()) return out;
  MDCP_CHECK(budget_bytes > 0 && min_nnz > 0);
  const index_t pr = mk::padded_rank(rank == 0 ? index_t{16} : rank);
  detail::alto_partition_rec(codec, keys, nnz_t{0}, keys.size(), pr,
                             budget_bytes, min_nnz, out);
  return out;
}

class AltoMttkrpEngine final : public MttkrpEngine {
 public:
  explicit AltoMttkrpEngine(KernelContext ctx = {});
  /// Convenience: construct and prepare in one step.
  explicit AltoMttkrpEngine(const CooTensor& tensor, KernelContext ctx = {});

  std::string name() const override { return "alto"; }
  std::size_t memory_bytes() const override;

  const AltoCodec& codec() const noexcept { return codec_; }
  std::span<const AltoPartition> partitions() const noexcept {
    return {parts_.data(), parts_.size()};
  }
  /// True when the shape forced the 128-bit key fallback.
  bool wide_keys() const noexcept { return wide_; }

 protected:
  void do_prepare(index_t rank) override;
  void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                  Matrix& out) override;

 private:
  template <typename Key>
  void encode_and_sort(std::vector<Key>& keys, index_t rank);
  template <typename Key>
  void compute_impl(const std::vector<Key>& keys, mode_t mode,
                    const std::vector<Matrix>& factors, Matrix& out);

  AltoCodec codec_;
  bool wide_ = false;
  std::vector<std::uint64_t> keys64_;  ///< sorted keys (64-bit fast path)
  std::vector<AltoKey128> keys128_;    ///< sorted keys (128-bit fallback)
  std::vector<real_t> vals_;           ///< values in sorted key order
  std::vector<AltoPartition> parts_;
  std::vector<nnz_t> part_ptr_;  ///< cumulative partition nnz, size P+1
  nnz_t max_part_nnz_ = 0;
  // Mode-0 row groups: the sorted stream is grouped by the most significant
  // field, so mode 0 reuses the COO-style grouped schedules in place.
  std::vector<index_t> rows_;
  std::vector<nnz_t> row_start_;
  nnz_t max_group_ = 0;
  std::vector<std::size_t> acc_off_;  ///< partition accumulator offsets
  sched::CachedPlan owner0_;  ///< mode 0, whole row groups
  sched::CachedPlan split0_;  ///< mode 0, privatized split tiles
  sched::CachedPlan ownerp_;  ///< modes > 0, whole partitions
  sched::CachedPlan splitu_;  ///< modes > 0, uniform nnz tiles (privatized)
  mk::Kernel mk_;  ///< rank-blocked dispatcher, set per prepare()
};

/// The engine's registered footprint predictor (see FootprintFn in
/// mttkrp/registry.hpp): the linearized key/value stream, the mode-0 row
/// grouping, the partition directory and the largest owner-path window
/// layout. The windows span each partition's [lo, hi] range, not its
/// distinct rows, so the predictor linearizes, sorts and partitions the
/// tensor as prepare() does (O(nnz log nnz)) and bounds what the engine
/// holds plus its arena peak. `counter` is unused.
std::size_t alto_footprint_bytes(const CooTensor& tensor, index_t rank,
                                 ProjectionCounter* counter, int threads);

}  // namespace mdcp
