// Experiment F6 — model prediction accuracy (the "model-driven" claim).
//
// For every dataset, every candidate strategy is (a) predicted by the
// analytic cost model and (b) actually measured. We report:
//   * the measured time of the strategy the model picked,
//   * the measured time of the true best strategy,
//   * the resulting "regret" ratio (1.0 = model picked the winner), and
//   * the Spearman rank correlation between predicted and measured times.
// The paper family's claim is near-zero regret at a tiny fraction of the
// cost of exhaustive autotuning.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "util/parallel.hpp"

namespace {

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  const auto ranks = [&](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
      r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  double d2 = 0;
  for (std::size_t i = 0; i < n; ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (static_cast<double>(n) *
                           (static_cast<double>(n) * n - 1.0));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdcp;
  using namespace mdcp::bench;

  init(argc, argv);
  set_num_threads(1);
  const index_t rank = 16;
  Rng rng(23);

  note("== F6: cost-model accuracy (R=%u, 1 thread) ==\n\n", rank);
  const auto params = calibrate_cost_model(rank);
  note("calibrated: %.3g s/flop, %.3g s/byte\n\n", params.seconds_per_flop,
       params.seconds_per_byte);

  TablePrinter table({"dataset", "#strat", "picked", "picked-t", "best-t",
                      "regret", "probed-regret", "spearman"},
                     13, "F6");
  TablePrinter mem_table({"dataset", "picked", "mem-pred", "mem-meas",
                          "pred/meas"},
                         14, "F6c");

  for (const auto& ds : standard_datasets()) {
    const auto report = select_strategy(ds.tensor, rank, 0, params);

    std::vector<Matrix> factors;
    for (mdcp::mode_t m = 0; m < ds.tensor.order(); ++m)
      factors.push_back(Matrix::random_uniform(ds.tensor.dim(m), rank, rng));

    std::vector<double> predicted, measured;
    double picked_time = 0, best_time = 1e300;
    std::size_t picked_mem_meas = 0;
    for (std::size_t i = 0; i < report.ranked.size(); ++i) {
      const auto& rs = report.ranked[i];
      // Each strategy gets its own workspace so the measured peak (engine
      // structures + per-thread scratch) is attributable to it alone and
      // directly comparable against the model's memory prediction.
      Workspace ws;
      DTreeMttkrpEngine engine(rs.strategy.spec, rs.strategy.name,
                               KernelContext{&ws});
      engine.prepare(ds.tensor, rank);
      const double t = time_mttkrp_sweep(engine, ds.tensor, factors, 2);
      predicted.push_back(rs.prediction.seconds_per_iteration);
      measured.push_back(t);
      if (i == report.chosen) {
        picked_time = t;
        picked_mem_meas = engine.peak_memory_bytes() + ws.peak_bytes();
      }
      best_time = std::min(best_time, t);
    }

    // Hybrid model+probe selection (F6b): shortlist 3, measure, re-pick.
    const auto probed = select_strategy_probed(ds.tensor, rank, 0, params, 3);
    const double probed_time = measured[probed.chosen];

    table.add_row({ds.name, std::to_string(report.ranked.size()),
                   report.winner().strategy.name, fmt_seconds(picked_time),
                   fmt_seconds(best_time),
                   fmt_ratio(picked_time / best_time),
                   fmt_ratio(probed_time / best_time),
                   fmt_ratio(spearman(predicted, measured))});

    const std::size_t mem_pred =
        report.winner().prediction.total_memory_bytes();
    mem_table.add_row({ds.name, report.winner().strategy.name,
                       fmt_bytes(mem_pred), fmt_bytes(picked_mem_meas),
                       fmt_ratio(static_cast<double>(mem_pred) /
                                 static_cast<double>(
                                     std::max<std::size_t>(picked_mem_meas,
                                                           1)))});
  }
  table.print();
  note("(regret 1.0x = the model picked the measured-fastest strategy)\n\n");
  note("== F6c: model memory prediction vs measured peak ==\n\n");
  mem_table.print();
  note("(mem-meas: engine symbolic+value peak plus workspace scratch\n"
       " peak; pred/meas near 1.0x validates the tuner's budget check)\n");
  return 0;
}
