#include "tensor/radix_sort.hpp"

#include <bit>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"
#include "util/parallel.hpp"

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

  // Every pass splits the ids into `parts` contiguous chunks. Each chunk
  // counts its digits; the scatter offsets run bucket-major, chunk-minor, so
  // each chunk writes its ids of a bucket after those of the chunks before
  // it. The pass stays a stable counting sort, whatever the chunk count.
  const int parts = num_threads();
  std::vector<nnz_t> next(n);
  std::vector<std::uint16_t> digit(n);
  std::vector<nnz_t> offset;        // per chunk: counts, then scatter cursors
  std::vector<nnz_t> bad(parts, n);  // per chunk: first out-of-range position
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
      // A cache line of padding between the chunks' counters.
      const std::size_t stride = (buckets + 15) / 8 * 8;
      offset.assign(parts * stride, 0);
      parallel_chunks(parts, [&](int c) {
        nnz_t* const count = offset.data() + c * stride;
        const Range r = chunk_range(n, parts, c);
        for (nnz_t i = r.begin; i < r.end; ++i) {
          const index_t d = (k->values[perm[i]] >> shift) & mask;
          if (d >= buckets) {
            bad[c] = i;
            return;
          }
          digit[i] = static_cast<std::uint16_t>(d);
          ++count[d];
        }
      });
      for (int c = 0; c < parts; ++c)
        MDCP_CHECK_MSG(bad[c] == n, "sort key value "
                                        << k->values[perm[bad[c]]]
                                        << " exceeds the key size "
                                        << k->size);
      nnz_t sum = 0;
      bool one_bucket = false;
      for (std::size_t d = 0; d < buckets; ++d) {
        const nnz_t first = sum;
        for (int c = 0; c < parts; ++c) {
          nnz_t& slot = offset[c * stride + d];
          const nnz_t count = slot;
          slot = sum;
          sum += count;
        }
        one_bucket = one_bucket || sum - first == n;
      }
      if (one_bucket) continue;  // one bucket: order unchanged
      parallel_chunks(parts, [&](int c) {
        nnz_t* const cursor = offset.data() + c * stride;
        const Range r = chunk_range(n, parts, c);
        for (nnz_t i = r.begin; i < r.end; ++i)
          next[cursor[digit[i]]++] = perm[i];
      });
      perm.swap(next);
    }
  }
  return perm;
}

}  // namespace mdcp
