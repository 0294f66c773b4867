// SPLATT-style MTTKRP on CSF storage.
//
// `csf_mttkrp_root` computes the MTTKRP for the CSF's *root* mode with a
// single bottom-up traversal: each fiber at level l contributes the Hadamard
// product of its subtree's accumulated value with the level-l factor row,
// applied once per fiber instead of once per nonzero (SPLATT's factoring).
//
// `CsfMttkrpEngine` keeps one CSF per mode (SPLATT's ALLMODE configuration)
// so every MTTKRP is a root-mode traversal. This is the state-of-the-art
// baseline the memoized dimension-tree engines are evaluated against: it
// factors work *within* one mode's traversal but recomputes everything
// *across* modes — N full traversals per CP-ALS iteration. Per-thread
// traversal accumulators (one length-R vector per CSF level) come from the
// workspace, hoisted out of the per-root recursion and reused across
// compute() calls.
// Parallelization: the engine runs the schedule picked by
// sched::choose_schedule per mode — owner-computes tiles of whole root
// fibers weighted by subtree nnz (race-free, bitwise deterministic across
// thread counts) or, when one hub root fiber dominates, tiles cutting
// between its level-1 child subtrees with per-thread partial outputs
// combined in fixed thread order.
#pragma once

#include <memory>

#include "csf/csf_tensor.hpp"
#include "mttkrp/engine.hpp"
#include "mttkrp/microkernel.hpp"
#include "sched/partition.hpp"

namespace mdcp {

/// out = MTTKRP in mode csf.mode_order()[0]. out is resized to
/// (dim(root mode) × R). Parallel over root fibers; deterministic. Scratch
/// comes from `ws` (null = the default workspace).
void csf_mttkrp_root(const CsfTensor& csf, const std::vector<Matrix>& factors,
                     Matrix& out, Workspace* ws = nullptr);

class CsfMttkrpEngine final : public MttkrpEngine {
 public:
  explicit CsfMttkrpEngine(KernelContext ctx = {});
  /// Convenience: construct and prepare (builds one CSF rooted at every
  /// mode) in one step.
  explicit CsfMttkrpEngine(const CooTensor& tensor, KernelContext ctx = {});

  std::string name() const override { return "csf"; }
  std::size_t memory_bytes() const override;

  const CsfTensor& csf_for_mode(mode_t mode) const { return *csfs_[mode]; }

 protected:
  void do_prepare(index_t rank) override;
  void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                  Matrix& out) override;

 private:
  struct SchedInfo {
    std::vector<nnz_t> root_nnz;  ///< subtree-nnz prefix per root fiber
    std::vector<nnz_t> lvl1_nnz;  ///< subtree nnz per level-1 fiber
    nnz_t max_root = 0;           ///< heaviest root subtree (skew input)
    sched::CachedPlan owner;      ///< whole-root-fiber tiles
    sched::CachedPlan split;      ///< level-1-subtree-granular tiles
  };

  std::vector<std::unique_ptr<CsfTensor>> csfs_;
  std::vector<SchedInfo> sched_;  // one per mode
  mk::Kernel mk_;                 // rank-blocked dispatcher, set per prepare()
};

}  // namespace mdcp
