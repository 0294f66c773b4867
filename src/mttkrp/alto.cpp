#include "mttkrp/alto.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <type_traits>

#include "sched/reduce.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"

namespace mdcp {

index_t AltoCodec::bits_for_dim(index_t dim) {
  MDCP_CHECK_MSG(dim > 0, "alto: a zero-sized mode cannot be linearized");
  // Indices span [0, dim): dim = 1 needs no bits, dim = 2^32 - 1 needs 32.
  return static_cast<index_t>(std::bit_width(dim - 1));
}

AltoCodec::AltoCodec(const shape_t& shape)
    : shape_(shape), bits_(shape.size(), 0), shift_(shape.size(), 0) {
  index_t total = 0;
  for (std::size_t m = 0; m < shape.size(); ++m) {
    bits_[m] = bits_for_dim(shape[m]);
    total += bits_[m];
  }
  MDCP_CHECK_MSG(total <= 128, "alto: shape needs "
                                   << total
                                   << " linearization bits, more than the "
                                      "128-bit key can hold");
  total_bits_ = total;
  // Mode 0 sits in the most significant bits so integer key order equals
  // lexicographic tuple order (mode 0 first).
  index_t s = 0;
  for (std::size_t m = shape.size(); m-- > 0;) {
    shift_[m] = s;
    s += bits_[m];
  }
}

std::uint64_t AltoCodec::encode64(std::span<const index_t> coords) const {
  MDCP_CHECK(fits64() && coords.size() == bits_.size());
  std::uint64_t k = 0;
  for (std::size_t m = 0; m < bits_.size(); ++m) {
    // Zero-width fields (size-1 modes) store nothing; skipping them also
    // keeps every executed shift below 64 — a populated field has
    // shift + bits <= 64 with bits >= 1, so shift <= 63 even when the
    // budget lands on exactly 64 bits.
    if (bits_[m] == 0) continue;
    k |= std::uint64_t{coords[m]} << shift_[m];
  }
  return k;
}

AltoKey128 AltoCodec::encode128(std::span<const index_t> coords) const {
  MDCP_CHECK(coords.size() == bits_.size());
  AltoKey128 k;
  for (std::size_t m = 0; m < bits_.size(); ++m) {
    const index_t bits = bits_[m];
    if (bits == 0) continue;
    const index_t s = shift_[m];
    const std::uint64_t v = coords[m];
    if (s >= 64) {
      k.hi |= v << (s - 64);  // s - 64 + bits <= 64, bits >= 1 → shift <= 63
    } else {
      k.lo |= v << s;  // low part; overflowing bits are shifted out
      // Straddling fields have s in [33, 63] (bits <= 32), so 64 - s is in
      // [1, 31] — never a shift by the full word width.
      if (s + bits > 64) k.hi |= v >> (64 - s);
    }
  }
  return k;
}

namespace {

// Every nonzero's linearized key, in input order.
template <typename Key>
std::vector<Key> encode_keys(const CooTensor& t, const AltoCodec& codec) {
  std::vector<Key> keys(t.nnz());
  std::array<index_t, kMaxOrder> c{};
  const std::span<index_t> cs(c.data(), t.order());
  for (nnz_t i = 0; i < t.nnz(); ++i) {
    t.coords(i, cs);
    if constexpr (std::is_same_v<Key, std::uint64_t>)
      keys[i] = codec.encode64(cs);
    else
      keys[i] = codec.encode128(cs);
  }
  return keys;
}

// The owner path's window layout for output `mode` > 0: off[p] is partition
// p's accumulator offset in reals (size P + 1), and off.back() the total. A
// partition gets a [lo, hi] window when the window fits the per-partition
// budget and the running total stays under kAltoOwnerWindowCapBytes;
// otherwise it is scattered (an empty window). The layout depends only on
// the partition geometry, never on the thread count.
void window_offsets(std::span<const AltoPartition> parts, mode_t mode,
                    index_t padded, std::vector<std::size_t>& off) {
  off.assign(parts.size() + 1, 0);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t window =
        static_cast<std::size_t>(parts[p].hi[mode] - parts[p].lo[mode] + 1) *
        padded;
    const bool windowed =
        window * sizeof(real_t) <= kAltoPartitionBudgetBytes &&
        (off[p] + window) * sizeof(real_t) <= kAltoOwnerWindowCapBytes;
    off[p + 1] = off[p] + (windowed ? window : 0);
  }
}

// Largest owner-path window total over the output modes > 0, in reals.
std::size_t max_window_reals(std::span<const AltoPartition> parts,
                             mode_t order, index_t padded) {
  std::vector<std::size_t> off;
  std::size_t most = 0;
  for (mode_t m = 1; m < order; ++m) {
    window_offsets(parts, m, padded, off);
    most = std::max(most, off.back());
  }
  return most;
}

}  // namespace

AltoMttkrpEngine::AltoMttkrpEngine(KernelContext ctx) : MttkrpEngine(ctx) {}

AltoMttkrpEngine::AltoMttkrpEngine(const CooTensor& tensor, KernelContext ctx)
    : MttkrpEngine(ctx) {
  prepare(tensor);
}

template <typename Key>
void AltoMttkrpEngine::encode_and_sort(std::vector<Key>& keys, index_t rank) {
  const CooTensor& t = tensor();
  const nnz_t n = t.nnz();

  keys = encode_keys<Key>(t, codec_);

  // One sort of the linearized stream replaces the per-mode permutations a
  // plain COO engine keeps. Stable, so duplicate coordinates keep their
  // input order and accumulation stays deterministic.
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](nnz_t a, nnz_t b) { return keys[a] < keys[b]; });
  std::vector<Key> sorted(n);
  vals_.resize(n);
  for (nnz_t i = 0; i < n; ++i) {
    sorted[i] = keys[perm[i]];
    vals_[i] = t.value(perm[i]);
  }
  keys = std::move(sorted);

  parts_ = alto_partition<Key>(codec_, {keys.data(), keys.size()}, rank);
  part_ptr_.assign(parts_.size() + 1, 0);
  max_part_nnz_ = 0;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    part_ptr_[p + 1] = parts_[p].end;
    max_part_nnz_ = std::max(max_part_nnz_, parts_[p].end - parts_[p].begin);
  }

  // The sorted stream is grouped by the most significant field, so mode 0
  // gets COO-style row groups for free (no extra permutation).
  rows_.clear();
  row_start_.clear();
  max_group_ = 0;
  for (nnz_t i = 0; i < n; ++i) {
    const index_t row = codec_.extract(keys[i], 0);
    if (rows_.empty() || rows_.back() != row) {
      rows_.push_back(row);
      row_start_.push_back(i);
    }
  }
  row_start_.push_back(n);
  for (std::size_t g = 0; g + 1 < row_start_.size(); ++g)
    max_group_ = std::max(max_group_, row_start_[g + 1] - row_start_[g]);
}

void AltoMttkrpEngine::do_prepare(index_t rank) {
  const CooTensor& t = tensor();
  MDCP_CHECK_MSG(t.order() >= 1, "alto: cannot linearize an order-0 tensor");
  codec_ = AltoCodec(t.shape());
  wide_ = !codec_.fits64();
  if (wide_) {
    keys64_.clear();
    keys64_.shrink_to_fit();
    encode_and_sort(keys128_, rank);
  } else {
    keys128_.clear();
    keys128_.shrink_to_fit();
    encode_and_sort(keys64_, rank);
  }
  owner0_ = {};
  split0_ = {};
  ownerp_ = {};
  splitu_ = {};
  mk_ = mk::Kernel(rank);
  if (rank > 0) {
    // The calling thread's slab holds the owner path's windows behind its
    // accumulator row: reserve the largest layout first, so that compute()
    // never grows the arena on that path (alto_footprint_bytes counts it).
    const index_t padded = mk_.padded();
    (void)workspace().thread_scratch<real_t>(
        padded + max_window_reals(parts_, t.order(), padded));
    workspace().reserve(effective_threads(), padded * sizeof(real_t));
  }
}

void AltoMttkrpEngine::do_compute(mode_t mode,
                                  const std::vector<Matrix>& factors,
                                  Matrix& out) {
  if (wide_)
    compute_impl(keys128_, mode, factors, out);
  else
    compute_impl(keys64_, mode, factors, out);
}

template <typename Key>
void AltoMttkrpEngine::compute_impl(const std::vector<Key>& keys, mode_t mode,
                                    const std::vector<Matrix>& factors,
                                    Matrix& out) {
  const CooTensor& t = tensor();
  const index_t r = check_factors(t, factors);
  MDCP_CHECK(mode < t.order());
  out.resize(t.dim(mode), r, 0);

  const mode_t order = t.order();
  const index_t dim = t.dim(mode);
  Workspace& ws = workspace();
  const nnz_t n = keys.size();

  if (mk_.rank() != r) mk_ = mk::Kernel(r);
  record_tile(mk_.tile());
  const mk::Kernel mk = mk_;
  const index_t padded = mk_.padded();

  // Modes other than the output mode, resolved once so the per-nonzero loop
  // can take the fused order-3/4 microkernel paths without re-scanning.
  std::array<mode_t, kMaxOrder> oth{};
  mode_t no = 0;
  for (mode_t m = 0; m < order; ++m)
    if (m != mode) oth[no++] = m;

  // Accumulates nonzeros [begin, end) of the sorted stream, decoding mode
  // indices from the packed key on the fly. `dst_of(key)` resolves the
  // destination row for one nonzero (the fixed-destination callers bind it
  // to a constant; the scattered-merge caller returns nullptr for rows the
  // calling thread does not own, skipping the flops). `tmp` is a slab-origin
  // Hadamard accumulator (64-byte aligned).
  const auto accumulate = [&](nnz_t begin, nnz_t end, real_t* tmp,
                              auto&& dst_of) {
    tmp = mk::assume_aligned(tmp);
    for (nnz_t i = begin; i < end; ++i) {
      const Key k = keys[i];
      const real_t v = vals_[i];
      real_t* dst = dst_of(k);
      if (dst == nullptr) continue;
      if (no == 2) {
        mk.fused2_accum(dst,
                        factors[oth[0]].row(codec_.extract(k, oth[0])).data(),
                        factors[oth[1]].row(codec_.extract(k, oth[1])).data(),
                        v);
      } else if (no == 3) {
        mk.fused3_accum(dst,
                        factors[oth[0]].row(codec_.extract(k, oth[0])).data(),
                        factors[oth[1]].row(codec_.extract(k, oth[1])).data(),
                        factors[oth[2]].row(codec_.extract(k, oth[2])).data(),
                        v);
      } else if (no == 1) {
        mk.axpy_accum(dst,
                      factors[oth[0]].row(codec_.extract(k, oth[0])).data(),
                      v);
      } else if (no == 0) {
        mk.add_scalar(dst, v);  // degenerate order-1: broadcast-accumulate
      } else {
        mk.fill(tmp, v);
        for (mode_t j = 0; j < no; ++j)
          mk.hadamard(tmp,
                      factors[oth[j]].row(codec_.extract(k, oth[j])).data());
        mk.accum(dst, tmp);
      }
    }
  };

  if (mode == 0) {
    // The stream is already grouped by the output row: same owner /
    // privatized schedules as the COO engine, minus its permutation
    // indirection.
    const auto group_size = [&](nnz_t g) {
      return row_start_[g + 1] - row_start_[g];
    };
    const sched::WorkShape shape{.total = n,
                                 .max_unit = max_group_,
                                 .units = rows_.size(),
                                 .out_rows = dim,
                                 .rank = r,
                                 .shared_writes = true};
    const sched::Decision d =
        sched::choose_schedule(shape, effective_threads(), schedule_mode());
    record_schedule(d);
    if (d.schedule == sched::Schedule::kOwner) {
      const sched::TilePlan& tp = sched::cached_tiles(
          owner0_, d.tiles,
          [&](int nt) { return sched::tile_groups(row_start_, nt); });
      // Scratch is acquired serially, up front: a budget trip or allocation
      // failure inside the parallel region could not propagate.
      ws.reserve(effective_threads(), padded * sizeof(real_t));
#pragma omp parallel
      {
        const FlushSubnormals fp;
        const auto tmp = ws.thread_scratch<real_t>(padded);
#pragma omp for schedule(dynamic, 1)
        for (int tile = 0; tile < tp.tiles(); ++tile) {
          sched::for_each_group_range(
              tp, tile, group_size, [&](nnz_t g, nnz_t begin, nnz_t end) {
                real_t* dst = out.row(rows_[g]).data();
                accumulate(row_start_[g] + begin, row_start_[g] + end,
                           tmp.data(), [dst](const Key&) { return dst; });
              });
        }
      }
    } else {
      const sched::TilePlan& tp = sched::cached_tiles(
          split0_, d.tiles,
          [&](int nt) { return sched::tile_groups_split(row_start_, nt); });
      const nnz_t out_elems = static_cast<nnz_t>(dim) * r;
      ws.reserve(effective_threads(), (padded + out_elems) * sizeof(real_t));
      sched::PartialSet parts;
#pragma omp parallel
      {
        const FlushSubnormals fp;
        const int team = team_size();
        const int tid = thread_id();
        // One slab per thread: the Hadamard accumulator first (padded
        // stride keeps the partial slab behind it 64-byte aligned), then
        // the partial output (dim × R).
        const auto slab = ws.thread_scratch<real_t>(padded + out_elems);
        real_t* tmp = slab.data();
        real_t* partial = tmp + padded;
        std::fill(partial, partial + out_elems, real_t{0});
        parts.publish(tid, partial);
        // Static tile→thread assignment: the work each thread accumulates
        // is a function of (team, tid) only, so the fixed-order combine
        // below yields bitwise-identical results run to run.
        for (int tile = tid; tile < tp.tiles(); tile += team) {
          sched::for_each_group_range(
              tp, tile, group_size, [&](nnz_t g, nnz_t begin, nnz_t end) {
                real_t* dst = partial + static_cast<nnz_t>(rows_[g]) * r;
                accumulate(row_start_[g] + begin, row_start_[g] + end, tmp,
                           [dst](const Key&) { return dst; });
              });
        }
#pragma omp barrier
        parts.combine_into(out.data(), team,
                           chunk_range(out_elems, team, tid));
      }
      count_flops(sched::reduction_flops(d.tiles, dim, r));
    }
    count_flops(static_cast<std::uint64_t>(n) * r * order);
    return;
  }

  // Modes > 0: the stream is not grouped by the output row. Schedule over
  // the cache-fitting partitions built at prepare().
  const sched::WorkShape shape{.total = n,
                               .max_unit = max_part_nnz_,
                               .units = parts_.size(),
                               .out_rows = dim,
                               .rank = r,
                               .shared_writes = true};
  const sched::Decision d =
      sched::choose_schedule(shape, effective_threads(), schedule_mode());
  record_schedule(d);

  if (d.schedule == sched::Schedule::kOwner) {
    // ALTO partition path. Tight-range partitions own a private dense
    // accumulator over their [lo, hi] row window; the windows merge into
    // the output in ascending partition order. A partition whose window for
    // this mode would exceed the per-partition budget — a sparse-but-wide
    // interval, where splitting cannot shrink the range — gets no window
    // (acc_off_[p + 1] == acc_off_[p]); its rows merge directly into the
    // output under row ownership below. A global cap bounds the combined
    // window bytes regardless of the partition count. Classification
    // depends only on the partition geometry, never on the thread count,
    // and tiles never split a partition, so the result is bitwise identical
    // across thread counts.
    const std::size_t nparts = parts_.size();
    window_offsets(parts_, mode, padded, acc_off_);
    const std::size_t acc_total = acc_off_.back();
    const sched::TilePlan& tp = sched::cached_tiles(
        ownerp_, d.tiles,
        [&](int nt) { return sched::tile_groups(part_ptr_, nt); });
    const auto part_size = [&](nnz_t p) {
      return part_ptr_[p + 1] - part_ptr_[p];
    };
    // Scratch is acquired serially, up front: every thread's Hadamard
    // accumulator first, then the calling thread's slab is extended to hold
    // the shared partition windows behind its own tmp region — a budget
    // trip inside the parallel region could not propagate.
    ws.reserve(effective_threads(), padded * sizeof(real_t));
    const auto master = ws.thread_scratch<real_t>(padded + acc_total);
    real_t* const acc = master.data() + padded;
#pragma omp parallel
    {
      const FlushSubnormals fp;
      real_t* tmp = ws.thread_scratch<real_t>(padded).data();
#pragma omp for schedule(dynamic, 1)
      for (int tile = 0; tile < tp.tiles(); ++tile) {
        sched::for_each_group_range(
            tp, tile, part_size, [&](nnz_t p, nnz_t begin, nnz_t end) {
              if (acc_off_[p + 1] == acc_off_[p]) return;  // scattered
              const AltoPartition& part = parts_[p];
              real_t* base = mk::assume_aligned(acc + acc_off_[p]);
              // Whole-partition tiles: ranges always start at 0, so the
              // window is zeroed exactly once, by the tile that owns it.
              if (begin == 0)
                std::fill(base, base + (acc_off_[p + 1] - acc_off_[p]),
                          real_t{0});
              const index_t lo = part.lo[mode];
              accumulate(part.begin + begin, part.begin + end, tmp,
                         [&](const Key& k) {
                           return base + static_cast<std::size_t>(
                                             codec_.extract(k, mode) - lo) *
                                             padded;
                         });
            });
      }
      // The omp-for barrier above orders every window write before the
      // merge. Each thread owns a disjoint row chunk; every row receives
      // first its windowed contributions, then its scattered ones, each in
      // ascending partition order — a fixed order independent of the team.
      const int team = team_size();
      const int tid = thread_id();
      const Range rows = chunk_range(dim, team, tid);
      for (std::size_t p = 0; p < nparts; ++p) {
        if (acc_off_[p + 1] == acc_off_[p]) continue;  // scattered
        const index_t lo = parts_[p].lo[mode];
        const nnz_t rb = std::max<nnz_t>(rows.begin, lo);
        const nnz_t re = std::min<nnz_t>(
            rows.end, static_cast<nnz_t>(parts_[p].hi[mode]) + 1);
        for (nnz_t row = rb; row < re; ++row)
          mk.accum(out.row(static_cast<index_t>(row)).data(),
                   acc + acc_off_[p] + (row - lo) * padded);
      }
      // Scattered partitions: every thread scans their nonzeros and
      // accumulates only the rows it owns, straight into the output. The
      // decode work is replicated across the team; the flops are not.
      for (std::size_t p = 0; p < nparts; ++p) {
        if (acc_off_[p + 1] != acc_off_[p]) continue;
        accumulate(parts_[p].begin, parts_[p].end, tmp,
                   [&](const Key& k) -> real_t* {
                     const nnz_t row = codec_.extract(k, mode);
                     if (row < rows.begin || row >= rows.end) return nullptr;
                     return out.row(static_cast<index_t>(row)).data();
                   });
      }
    }
    std::uint64_t merge_rows = 0;
    for (std::size_t p = 0; p < nparts; ++p)
      merge_rows += (acc_off_[p + 1] - acc_off_[p]) / std::max<index_t>(
                                                          padded, 1);
    count_flops(merge_rows * r);
  } else {
    // Privatized fallback: per-thread full-output slabs over uniform
    // nonzero tiles, combined in fixed thread order.
    const sched::TilePlan& tp = sched::cached_tiles(
        splitu_, d.tiles, [&](int nt) { return sched::tile_uniform(n, nt); });
    const nnz_t out_elems = static_cast<nnz_t>(dim) * r;
    ws.reserve(effective_threads(), (padded + out_elems) * sizeof(real_t));
    sched::PartialSet parts;
#pragma omp parallel
    {
      const FlushSubnormals fp;
      const int team = team_size();
      const int tid = thread_id();
      const auto slab = ws.thread_scratch<real_t>(padded + out_elems);
      real_t* tmp = slab.data();
      real_t* partial = tmp + padded;
      std::fill(partial, partial + out_elems, real_t{0});
      parts.publish(tid, partial);
      const auto item_count = [&](nnz_t) { return n; };
      for (int tile = tid; tile < tp.tiles(); tile += team) {
        sched::for_each_group_range(
            tp, tile, item_count, [&](nnz_t, nnz_t begin, nnz_t end) {
              accumulate(begin, end, tmp, [&](const Key& k) {
                return partial +
                       static_cast<nnz_t>(codec_.extract(k, mode)) * r;
              });
            });
      }
#pragma omp barrier
      parts.combine_into(out.data(), team, chunk_range(out_elems, team, tid));
    }
    count_flops(sched::reduction_flops(d.tiles, dim, r));
  }
  count_flops(static_cast<std::uint64_t>(n) * r * order);
}

std::size_t AltoMttkrpEngine::memory_bytes() const {
  std::size_t b = keys64_.size() * sizeof(std::uint64_t) +
                  keys128_.size() * sizeof(AltoKey128) +
                  vals_.size() * sizeof(real_t) +
                  part_ptr_.size() * sizeof(nnz_t) +
                  rows_.size() * sizeof(index_t) +
                  row_start_.size() * sizeof(nnz_t) +
                  acc_off_.size() * sizeof(std::size_t);
  for (const auto& p : parts_)
    b += sizeof(AltoPartition) + 2 * p.lo.size() * sizeof(index_t);
  return b;
}

namespace {

// Bytes of everything prepare() and compute() keep for a `Key`-wide stream
// at padded rank `padded`, and of the calling thread's slab (its accumulator
// row plus the largest owner-path window layout), built the way prepare()
// builds them.
template <typename Key>
std::size_t linearized_bytes(const CooTensor& t, const AltoCodec& codec,
                             index_t rank, index_t padded) {
  std::vector<Key> keys = encode_keys<Key>(t, codec);
  std::sort(keys.begin(), keys.end());  // the same stream as the stable sort
  const std::vector<AltoPartition> parts =
      alto_partition<Key>(codec, {keys.data(), keys.size()}, rank);
  std::size_t rows = 0;  // mode-0 row groups
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (i == 0 || codec.extract(keys[i], 0) != codec.extract(keys[i - 1], 0))
      ++rows;
  const std::size_t np = parts.size();
  std::size_t b = keys.size() * (sizeof(Key) + sizeof(real_t)) +
                  rows * sizeof(index_t) + (rows + 1) * sizeof(nnz_t) +
                  (np + 1) * (sizeof(nnz_t) + sizeof(std::size_t)) +
                  np * (sizeof(AltoPartition) + 2 * t.order() * sizeof(index_t));
  const std::size_t slab =
      (padded + max_window_reals(parts, t.order(), padded)) * sizeof(real_t);
  return b + (slab + Workspace::kAlignment - 1) / Workspace::kAlignment *
                 Workspace::kAlignment;
}

}  // namespace

std::size_t alto_footprint_bytes(const CooTensor& tensor, index_t rank,
                                 ProjectionCounter* /*counter*/, int threads) {
  const index_t padded = mk::padded_rank(rank);
  // One accumulator row and one alignment round-up per thread. With the
  // calling thread's row counted again in its window slab, this also covers
  // that slab doubling (Workspace growth is geometric) when a privatized
  // partial outgrows it, beyond the privatized envelope the chain adds.
  const std::size_t scratch =
      static_cast<std::size_t>(threads) *
      (padded * sizeof(real_t) + Workspace::kAlignment);
  if (tensor.nnz() == 0) return scratch;
  index_t key_bits = 0;
  for (mode_t m = 0; m < tensor.order(); ++m)
    key_bits += AltoCodec::bits_for_dim(tensor.dim(m));
  // A shape the codec rejects cannot run at all.
  if (key_bits > 128) return std::numeric_limits<std::size_t>::max();
  const AltoCodec codec(tensor.shape());
  return scratch +
         (codec.fits64()
              ? linearized_bytes<std::uint64_t>(tensor, codec, rank, padded)
              : linearized_bytes<AltoKey128>(tensor, codec, rank, padded));
}

}  // namespace mdcp
