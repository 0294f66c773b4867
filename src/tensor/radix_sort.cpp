#include "tensor/radix_sort.hpp"

#include <bit>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"

namespace mdcp {

namespace {

// Widest digit: 2^11 counters stay in L1, and a mode of up to 2^22 indices
// takes two passes.
constexpr int kMaxDigitBits = 11;

}  // namespace

std::vector<nnz_t> radix_sort_permutation(std::span<const SortKey> keys,
                                          nnz_t n) {
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  if (n < 2) return perm;

  std::vector<nnz_t> next(n);
  std::vector<std::uint16_t> digit(n);
  std::vector<nnz_t> start;
  // Least significant key and digit first: every pass is a stable counting
  // sort, so after the last pass the ids are in lexicographic order with
  // ties in id order.
  for (auto k = keys.rbegin(); k != keys.rend(); ++k) {
    MDCP_CHECK_MSG(k->size > 0, "sort key size must be positive");
    MDCP_CHECK_MSG(k->values.size() >= n, "sort key has " << k->values.size()
                                              << " values for " << n << " ids");
    // Split the key's bits into equal digits of at most kMaxDigitBits. The
    // top digit is not masked, so a value past the size shows up as a digit
    // past the last bucket.
    const int bits = std::bit_width(k->size - 1);
    const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
    const int width = passes > 0 ? (bits + passes - 1) / passes : 0;
    for (int p = 0; p < passes; ++p) {
      const int shift = p * width;
      const bool top = p + 1 == passes;
      const index_t mask = top ? ~index_t{0} : (index_t{1} << width) - 1;
      const std::size_t buckets =
          top ? ((k->size - 1) >> shift) + std::size_t{1}
              : std::size_t{1} << width;
      start.assign(buckets + 1, 0);
      for (nnz_t i = 0; i < n; ++i) {
        const index_t d = (k->values[perm[i]] >> shift) & mask;
        MDCP_CHECK_MSG(d < buckets, "sort key value "
                                        << k->values[perm[i]]
                                        << " exceeds the key size "
                                        << k->size);
        digit[i] = static_cast<std::uint16_t>(d);
        ++start[d + 1];
      }
      if (start[digit[0] + 1] == n) continue;  // one bucket: order unchanged
      std::partial_sum(start.begin(), start.end(), start.begin());
      for (nnz_t i = 0; i < n; ++i) next[start[digit[i]]++] = perm[i];
      perm.swap(next);
    }
  }
  return perm;
}

}  // namespace mdcp
