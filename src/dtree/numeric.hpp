// Numeric TTMV: materializes the value matrices of dimension-tree nodes.
//
// This is the per-iteration hot path. All R columns of a node are updated in
// one "thick" vectorized pass (the TTMV formulation): for every tuple of the
// node, the contributing parent rows are multiplied by the factor rows of
// the contracted modes (δ) and summed. Each node pass runs the schedule
// picked by sched::choose_schedule — owner-computes over nnz-weighted tiles
// of whole tuples (no atomics, bitwise identical for any thread count) or,
// when one tuple's reduction set dominates, tiles cutting inside reduction
// sets with per-thread partial values combined in fixed thread order.
// Per-thread temporaries (and any partial slab) are drawn from the caller's
// Workspace; no heap allocation happens here beyond the node value matrices
// themselves.
#pragma once

#include <cstdint>
#include <vector>

#include "dtree/dimension_tree.hpp"
#include "la/matrix.hpp"
#include "sched/schedule.hpp"
#include "util/isa.hpp"
#include "util/workspace.hpp"

namespace mdcp {

/// Scheduling control + telemetry for a chain of node TTMV launches (one
/// per re-evaluated node). The caller seeds threads/mode and reads back the
/// launch counts and the last launch's decision for its KernelStats.
struct TtmvSched {
  int threads = 1;
  ScheduleMode mode = ScheduleMode::kAuto;
  /// Compiled kernel variant the launches run (util/isa.hpp). Engines keep
  /// the load-time choice; tests set it to compare the variants.
  isa::Isa variant = isa::dispatched();
  // Accumulated across launches (an engine compute() may evaluate a chain).
  std::uint64_t owner_launches = 0;
  std::uint64_t privatized_launches = 0;
  sched::Decision last;  ///< decision of the most recent launch
};

/// Ensures node `which` (and, recursively, its ancestors) hold value
/// matrices consistent with `factors`. `rank` is the factor column count.
/// Nodes already marked valid are reused — the memoization. Returns the
/// number of floating-point multiply/add operations actually performed
/// (zero when everything was served from cache). `sched` (optional)
/// controls the parallel schedule and receives launch telemetry; null runs
/// the owner-computes heuristic at the global thread count.
std::uint64_t compute_node_values(DimensionTree& tree, int which,
                                  const std::vector<Matrix>& factors,
                                  index_t rank, Workspace& ws,
                                  TtmvSched* ts = nullptr);

/// Marks invalid the value matrix of every node whose tensor was contracted
/// with factor `mode` (i.e. mode ∉ μ(t)) and empties it to 0×0. Its storage
/// is kept (Matrix::resize keeps the capacity), so re-evaluating the node
/// reuses it without an allocation; DimensionTree::value_bytes() counts
/// only the materialized entries. Call whenever factor `mode` changes.
void invalidate_mode(DimensionTree& tree, mode_t mode);

/// Marks invalid and empties every value matrix, keeping the storage for
/// re-evaluation as invalidate_mode does.
void invalidate_all_nodes(DimensionTree& tree);

}  // namespace mdcp
