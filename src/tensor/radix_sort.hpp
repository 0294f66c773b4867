// Stable LSD radix sort of nonzero ids by a list of index arrays.
//
// Every symbolic build sorts tuple ids lexicographically by a few modes'
// coordinates: the COO tensor's sorted_permutation (CSF, stats, coalesce),
// the dimension tree's projection of each parent onto a child, the COO
// engine's per-mode grouping. Each key array is bounded by its mode size, so
// a few O(nnz) counting-sort passes, one per digit, replace an
// O(nnz log nnz) comparator sort. Digits are cut from each mode's size: a
// mode of size 1 costs nothing, a mode of size <= 2^11 one pass.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace mdcp {

/// One sort key: `values[i]` is the key of id i; every value is < `size`.
struct SortKey {
  std::span<const index_t> values;
  index_t size;
};

/// The permutation of ids 0..n-1 that orders them lexicographically by
/// `keys` (keys[0] most significant), ties kept in id order. This is exactly
/// the permutation std::stable_sort gives with the lexicographic comparator.
/// Throws mdcp::error if a key array is shorter than n or holds a value the
/// key's size does not cover.
std::vector<nnz_t> radix_sort_permutation(std::span<const SortKey> keys,
                                          nnz_t n);

}  // namespace mdcp
