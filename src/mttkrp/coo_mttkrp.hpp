// COO-direct MTTKRP engine.
//
// One pass over the nonzeros per output mode: for each nonzero, the value is
// multiplied by the Hadamard product of the N-1 relevant factor rows and
// accumulated into the output row — O(N·nnz·R) per mode, O(N²·nnz·R) per
// CP-ALS iteration. No factoring, no memoization; this is the simplest
// correct parallel kernel and the floor every optimized engine must beat.
//
// Parallelization: prepare() precomputes, per mode, a permutation of the
// nonzeros sorted by that mode's index together with row-group offsets.
// The numeric phase runs the schedule picked by sched::choose_schedule —
// owner-computes tiles of whole row groups (atomics-free, bitwise
// deterministic for any thread count) or, when one hub row dominates,
// balanced tiles that split row groups across threads with per-thread
// partial outputs combined in fixed thread order. Scratch (the length-R
// Hadamard accumulator and any partial-output slab) comes from the context
// workspace.
#pragma once

#include <vector>

#include "mttkrp/engine.hpp"
#include "mttkrp/microkernel.hpp"
#include "sched/partition.hpp"

namespace mdcp {

class ProjectionCounter;

class CooMttkrpEngine final : public MttkrpEngine {
 public:
  explicit CooMttkrpEngine(KernelContext ctx = {});
  /// Convenience: construct and prepare in one step.
  explicit CooMttkrpEngine(const CooTensor& tensor, KernelContext ctx = {});

  std::string name() const override { return "coo"; }
  std::size_t memory_bytes() const override;

 protected:
  void do_prepare(index_t rank) override;
  void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                  Matrix& out) override;

 private:
  struct ModePlan {
    std::vector<nnz_t> perm;       ///< nonzeros sorted by this mode's index
    std::vector<index_t> rows;     ///< distinct row indices, ascending
    std::vector<nnz_t> row_start;  ///< CSR offsets into perm, size rows+1
    nnz_t max_group = 0;           ///< heaviest row group (skew input)
    sched::CachedPlan owner;       ///< whole-group tiles
    sched::CachedPlan split;       ///< balanced tiles (privatized path)
  };

  std::vector<ModePlan> plans_;  // one per mode
  mk::Kernel mk_;                // rank-blocked dispatcher, set per prepare()
};

/// The engine's registered footprint predictor (see FootprintFn in
/// mttkrp/registry.hpp): the per-mode scatter plans plus one R-row tile
/// accumulator per thread.
std::size_t coo_footprint_bytes(const CooTensor& tensor, index_t rank,
                                ProjectionCounter* counter, int threads);

}  // namespace mdcp
