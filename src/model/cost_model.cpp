#include "model/cost_model.hpp"

#include <algorithm>
#include <functional>

#include "dtree/dtree_engine.hpp"
#include "mttkrp/microkernel.hpp"
#include "sched/schedule.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {

mode_set_t spec_mode_set(const TreeSpec& spec) {
  mode_set_t s = 0;
  for (mode_t m : spec.modes) s |= mode_set_t{1} << m;
  return s;
}

}  // namespace

StrategyPrediction predict_strategy(const CooTensor& tensor,
                                    const TreeSpec& spec, index_t rank,
                                    ProjectionCounter& counter,
                                    const CostModelParams& params) {
  spec.validate(tensor.order());
  StrategyPrediction pred;
  const double r = static_cast<double>(rank);
  // Vector-width-aware flop term: the microkernel issues whole SIMD lanes,
  // so an awkward rank (e.g. 17) pays for the next multiple of the vector
  // width. Byte terms keep the true r — memory traffic is not padded.
  const double rv = static_cast<double>(mk::padded_rank(rank));

  const mode_set_t root_set = spec_mode_set(spec);

  // Value bytes of every non-root node, and the nodes on each mode's
  // root-to-leaf path, for the peak-value-memory bound.
  std::vector<std::size_t> value_bytes;
  std::vector<std::vector<std::size_t>> leaf_path(tensor.order());
  std::vector<std::size_t> path;

  const std::function<void(const TreeSpec&, mode_set_t, nnz_t)> visit =
      [&](const TreeSpec& node, mode_set_t parent_set, nnz_t parent_tuples) {
        const mode_set_t ms = spec_mode_set(node);
        const bool is_root = parent_set == 0;
        nnz_t tuples = is_root ? tensor.nnz() : counter.count(ms);
        if (!is_root) tuples = std::min(tuples, parent_tuples);

        if (!is_root) {
          NodeCostEstimate nc;
          nc.mode_set = ms;
          nc.tuples = tuples;
          nc.parent_tuples = parent_tuples;
          nc.delta = mode_count(parent_set & ~ms);
          const double pt = static_cast<double>(parent_tuples);
          nc.flops = pt * rv * (nc.delta + 1);
          nc.bytes = pt * (r * sizeof(real_t)                 // parent row
                           + nc.delta * r * sizeof(real_t)    // factor rows
                           + sizeof(nnz_t))                   // reduction id
                     + static_cast<double>(tuples) * r * sizeof(real_t);
          pred.nodes.push_back(nc);
          pred.flops_per_iteration += nc.flops;
          pred.bytes_per_iteration += nc.bytes;

          // Privatized-reduction envelope: a launch above the work gate may
          // run split tiles at `threads` partials, adding a combine pass
          // (threads × tuples × R adds) and a transient partial-slab
          // footprint. The model lacks per-launch skew, so this is the
          // worst case the scheduler can choose, not a certainty.
          if (params.threads > 1 && parent_tuples >= sched::kMinPrivatizeWork) {
            const double red = static_cast<double>(params.threads) *
                               static_cast<double>(tuples) * r;
            pred.reduction_flops_per_iteration += red;
            pred.flops_per_iteration += red;
            pred.bytes_per_iteration +=
                static_cast<double>(params.threads) *
                static_cast<double>(tuples) * r * sizeof(real_t);
            pred.privatized_partial_bytes = std::max(
                pred.privatized_partial_bytes,
                sched::privatized_partial_bytes(
                    params.threads, static_cast<index_t>(tuples), rank));
          }

          // Persistent symbolic structures of this node: its index arrays,
          // reduction offsets and one operand set per reduction entry — the
          // parent tuple id, or for a child of the root the tensor value and
          // the contracted coordinates (dtree/symbolic.hpp).
          const std::size_t entry_bytes =
              parent_set == root_set
                  ? sizeof(real_t) +
                        static_cast<std::size_t>(nc.delta) * sizeof(index_t)
                  : sizeof(nnz_t);
          pred.symbolic_bytes +=
              static_cast<std::size_t>(tuples) * node.modes.size() *
                  sizeof(index_t) +
              static_cast<std::size_t>(parent_tuples) * entry_bytes +
              (static_cast<std::size_t>(tuples) + 1) * sizeof(nnz_t);
          path.push_back(value_bytes.size());
          value_bytes.push_back(static_cast<std::size_t>(tuples) * rank *
                                sizeof(real_t));
        }

        if (node.is_leaf()) {
          leaf_path[node.modes[0]] = path;
        } else {
          for (const auto& c : node.children) visit(c, ms, tuples);
        }
        if (!is_root) path.pop_back();
      };
  visit(spec, 0, 0);

  // A node's values stay cached until a factor outside its mode set is
  // updated, and the nodes containing mode m are exactly m's leaf path. So
  // while the sweep computes mode m+1, mode m's path is still resident: the
  // peak is the largest union of two consecutive paths, the last mode's
  // path meeting the first's at the start of the next iteration.
  const std::size_t order = leaf_path.size();
  for (std::size_t m = 0; m < order; ++m) {
    std::vector<bool> live(value_bytes.size(), false);
    for (const std::size_t id : leaf_path[m]) live[id] = true;
    for (const std::size_t id : leaf_path[(m + 1) % order]) live[id] = true;
    std::size_t bytes = 0;
    for (std::size_t id = 0; id < live.size(); ++id)
      if (live[id]) bytes += value_bytes[id];
    pred.peak_value_bytes = std::max(pred.peak_value_bytes, bytes);
  }
  pred.seconds_per_iteration =
      params.seconds_per_flop * pred.flops_per_iteration +
      params.seconds_per_byte * pred.bytes_per_iteration;
  return pred;
}

nnz_t predicted_distinct_rows(const CooTensor& t, mode_t m,
                              ProjectionCounter* counter) {
  const nnz_t d = counter != nullptr ? counter->count(mode_set_t{1} << m)
                                     : std::min<nnz_t>(t.nnz(), t.dim(m));
  return std::min(d, t.nnz());
}

std::size_t privatized_envelope_bytes(const CooTensor& t, index_t rank,
                                      int threads, ScheduleMode sched_mode) {
  // Charged only when the auto heuristic may pick the privatized schedule
  // and the work clears its gate.
  if (sched_mode == ScheduleMode::kOwner || threads <= 1) return 0;
  if (static_cast<nnz_t>(t.nnz()) * rank < sched::kMinPrivatizeWork) return 0;
  index_t max_dim = 0;
  for (mode_t m = 0; m < t.order(); ++m) max_dim = std::max(max_dim, t.dim(m));
  return sched::privatized_partial_bytes(threads, max_dim, rank);
}

CostModelParams calibrate_cost_model(index_t rank, std::uint64_t seed) {
  CostModelParams params;
  // Probe: one flat-tree MTTKRP sweep on a small uniform 4-D tensor; fit
  // seconds_per_flop so that predicted == measured, holding the machine-
  // balance ratio between the flop and byte terms fixed.
  const shape_t shape{200, 200, 200, 200};
  const nnz_t probe_nnz = 40000;
  const CooTensor probe = generate_uniform(shape, probe_nnz, seed);
  auto engine = make_dtree_flat(probe);

  Rng rng(seed);
  std::vector<Matrix> factors;
  for (mode_t m = 0; m < probe.order(); ++m)
    factors.push_back(Matrix::random_uniform(probe.dim(m), rank, rng));

  Matrix out;
  engine->compute(0, factors, out);  // warm-up (symbolic already built)
  WallTimer t;
  const int reps = 5;
  for (int rep = 0; rep < reps; ++rep) {
    engine->invalidate_all();
    for (mode_t m = 0; m < probe.order(); ++m)
      engine->compute(m, factors, out);
  }
  const double measured = t.seconds() / reps;

  ProjectionCounter counter(probe);
  std::vector<mode_t> order(probe.order());
  for (mode_t m = 0; m < probe.order(); ++m) order[m] = m;
  const auto pred =
      predict_strategy(probe, TreeSpec::flat(order), rank, counter, params);
  if (pred.seconds_per_iteration > 0 && measured > 0) {
    const double scale = measured / pred.seconds_per_iteration;
    params.seconds_per_flop *= scale;
    params.seconds_per_byte *= scale;
  }
  return params;
}

}  // namespace mdcp
