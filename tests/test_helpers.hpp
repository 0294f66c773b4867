// Shared fixtures/utilities for the mdcp test suite.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "mdcp.hpp"

namespace mdcp::testing {

/// Random factor matrices matching `tensor` with the given rank.
inline std::vector<Matrix> random_factors(const CooTensor& tensor,
                                          index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> f;
  f.reserve(tensor.order());
  for (mode_t m = 0; m < tensor.order(); ++m)
    f.push_back(Matrix::random_uniform(tensor.dim(m), rank, rng));
  return f;
}

/// True when some entry of `m` is subnormal.
inline bool has_subnormal(const Matrix& m) {
  for (std::size_t e = 0; e < m.size(); ++e)
    if (std::fpclassify(m.data()[e]) == FP_SUBNORMAL) return true;
  return false;
}

/// The calling thread's MXCSR control bits: the register without its six
/// exception status flags, which arithmetic raises (0 off x86).
inline unsigned mxcsr_controls() {
#if defined(__SSE2__)
  return _mm_getcsr() & ~0x3Fu;
#else
  return 0;
#endif
}

/// Clears FTZ|DAZ (util/fpenv.hpp) on the calling thread and on every
/// thread of a num_threads() OpenMP team. A worker starts with the MXCSR of
/// the thread that created it, so a worker the runtime created inside a
/// kernel already has both bits; clearing them makes the workers look like
/// ones created outside any kernel, which is what a parallel body without
/// its own guard would then run with.
inline void clear_flush_bits_everywhere() {
#if defined(__SSE2__)
#pragma omp parallel num_threads(num_threads())
  _mm_setcsr(_mm_getcsr() & ~kFlushSubnormalBits);
#endif
}

/// Small dense-ish tensor for brute-force comparisons.
inline CooTensor small_tensor(mode_t order, index_t dim, nnz_t nnz,
                              std::uint64_t seed) {
  shape_t shape(order, dim);
  return generate_uniform(shape, nnz, seed);
}

/// Every registered engine except "auto" (which runs one of the dtree
/// engines under the hood and is tested separately), in registration order.
inline std::vector<std::string> exact_engine_names() {
  std::vector<std::string> names;
  for (const auto& name : EngineRegistry::instance().names())
    if (name != "auto") names.push_back(name);
  return names;
}

}  // namespace mdcp::testing
