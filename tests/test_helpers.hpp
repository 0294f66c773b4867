// Shared fixtures/utilities for the mdcp test suite.
#pragma once

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

/// Small dense-ish tensor for brute-force comparisons.
inline CooTensor small_tensor(mode_t order, index_t dim, nnz_t nnz,
                              std::uint64_t seed) {
  shape_t shape(order, dim);
  return generate_uniform(shape, nnz, seed);
}

/// Every registered engine except "auto" and "auto+probe" (which run one of
/// the dtree engines under the hood and are tested separately), in
/// registration order.
inline std::vector<std::string> exact_engine_names() {
  std::vector<std::string> names;
  for (const auto& name : EngineRegistry::instance().names())
    if (name != "auto" && name != "auto+probe") names.push_back(name);
  return names;
}

}  // namespace mdcp::testing
