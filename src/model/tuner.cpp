#include "model/tuner.hpp"

#include <algorithm>
#include <new>
#include <sstream>

#include "mttkrp/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {

// Candidates select_strategy_probed measures after the model's ranking.
constexpr std::size_t kProbeCandidates = 3;

// Publishes the tuner's decision so a later measured run can be compared
// against the prediction (cp_als fills in the measured side and the error
// ratios; see "tuner.*" gauges in docs/observability.md).
void record_selection(const TunerReport& report) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("tuner.selections").add();
  const auto& win = report.winner();
  reg.gauge("tuner.predicted_seconds_per_iter")
      .set(win.prediction.seconds_per_iteration);
  reg.gauge("tuner.predicted_memory_bytes")
      .set(static_cast<double>(win.prediction.total_memory_bytes()));
}

// The static selection rule: the first (fastest) strategy that fits the
// budget; if none fit, the minimum-memory one.
std::size_t first_feasible(const std::vector<RankedStrategy>& ranked) {
  for (std::size_t i = 0; i < ranked.size(); ++i)
    if (ranked[i].fits_budget) return i;
  std::size_t best = 0;
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    if (ranked[i].prediction.total_memory_bytes() <
        ranked[best].prediction.total_memory_bytes())
      best = i;
  }
  return best;
}

// Predicts every candidate, sorts by predicted seconds and applies the
// static selection rule.
TunerReport rank_strategies(const CooTensor& tensor, index_t rank,
                            std::size_t memory_budget_bytes,
                            const CostModelParams& params) {
  MDCP_CHECK(rank > 0);
  MDCP_TRACE_SPAN("tuner.select", "rank", static_cast<std::int64_t>(rank));
  ProjectionCounter counter(tensor);
  TunerReport report;
  for (auto& strat : enumerate_strategies(tensor, &counter)) {
    RankedStrategy rs;
    rs.prediction = predict_strategy(tensor, strat.spec, rank, counter, params);
    rs.fits_budget = memory_budget_bytes == 0 ||
                     rs.prediction.total_memory_bytes() <= memory_budget_bytes;
    rs.strategy = std::move(strat);
    report.ranked.push_back(std::move(rs));
  }
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const RankedStrategy& a, const RankedStrategy& b) {
                     return a.prediction.seconds_per_iteration <
                            b.prediction.seconds_per_iteration;
                   });
  report.chosen = first_feasible(report.ranked);
  return report;
}

// The history overlay: the fastest budget-feasible candidate with a stored
// run of this exact (tensor fingerprint, rank, threads, build, machine)
// replaces the model's pick. A run of an engine that is not a candidate
// (a fixed engine such as "coo") matches nothing.
void apply_history_overlay(const CooTensor& tensor, index_t rank, int threads,
                           TunerReport& report,
                           const obs::HistoryStore& history) {
  const std::uint64_t build = obs::HistoryStore::current_build_id();
  const std::uint64_t machine = obs::HistoryStore::current_machine_id();
  std::size_t best = report.ranked.size();
  double best_seconds = 0;
  for (const obs::RunObservation* o :
       history.query(obs::tensor_fingerprint(tensor),
                     static_cast<std::uint32_t>(rank))) {
    if (o->threads != threads || o->build_id != build ||
        o->machine_id != machine || o->seconds_per_iteration <= 0)
      continue;
    for (std::size_t i = 0; i < report.ranked.size(); ++i) {
      if (!report.ranked[i].fits_budget ||
          report.ranked[i].strategy.name != o->strategy)
        continue;
      if (best == report.ranked.size() ||
          o->seconds_per_iteration < best_seconds) {
        best = i;
        best_seconds = o->seconds_per_iteration;
      }
      break;
    }
  }
  auto& reg = obs::MetricsRegistry::instance();
  if (best == report.ranked.size()) {
    reg.counter("tuner.history_misses").add();
    return;
  }
  MDCP_TRACE_SPAN("tuner.history", "candidate",
                  static_cast<std::int64_t>(best));
  report.chosen = best;
  report.plan_source = "history";
  reg.counter("tuner.history_hits").add();
}

}  // namespace

TunerReport select_strategy(const CooTensor& tensor, index_t rank,
                            std::size_t memory_budget_bytes,
                            const CostModelParams& params,
                            const obs::HistoryStore* history) {
  TunerReport report =
      rank_strategies(tensor, rank, memory_budget_bytes, params);
  if (history != nullptr && !history->empty())
    apply_history_overlay(tensor, rank, params.threads, report, *history);
  record_selection(report);
  return report;
}

TunerReport select_strategy_probed(const CooTensor& tensor, index_t rank,
                                   std::size_t memory_budget_bytes,
                                   const CostModelParams& params,
                                   KernelContext ctx) {
  TunerReport report =
      rank_strategies(tensor, rank, memory_budget_bytes, params);

  // Probe inputs: fixed-seed factors (probe time, not output, depends on
  // them) shared by all candidates.
  Rng rng(0xbeefULL);
  std::vector<Matrix> factors;
  for (mode_t m = 0; m < tensor.order(); ++m)
    factors.push_back(Matrix::random_uniform(tensor.dim(m), rank, rng));

  double best_time = -1;
  std::size_t best_idx = report.chosen;
  std::size_t probed = 0;
  for (std::size_t i = 0;
       i < report.ranked.size() && probed < kProbeCandidates; ++i) {
    if (!report.ranked[i].fits_budget) continue;
    ++probed;
    MDCP_TRACE_SPAN("tuner.probe", "candidate",
                    static_cast<std::int64_t>(i));
    try {
      DTreeMttkrpEngine engine(report.ranked[i].strategy.spec,
                               report.ranked[i].strategy.name, ctx);
      engine.prepare(tensor, rank);
      Matrix out;
      // One warm sweep, then the minimum of two timed sweeps (the minimum is
      // the least-noisy estimator of intrinsic cost on a shared host).
      double candidate = -1;
      for (int pass = 0; pass < 3; ++pass) {
        WallTimer t;
        for (mode_t m = 0; m < tensor.order(); ++m) {
          engine.compute(m, factors, out);
          engine.factor_updated(m);
        }
        const double secs = t.seconds();
        if (pass > 0 && (candidate < 0 || secs < candidate)) candidate = secs;
      }
      if (best_time < 0 || candidate < best_time) {
        best_time = candidate;
        best_idx = i;
      }
    } catch (const budget_error&) {
      // The model under-estimated this candidate's scratch: it tripped the
      // arena budget mid-probe. Demote it so selection cannot pick it.
      report.ranked[i].fits_budget = false;
    } catch (const std::bad_alloc&) {
      report.ranked[i].fits_budget = false;
    }
  }
  // The probed winner, unless probing demoted every candidate it measured.
  report.chosen = report.ranked[best_idx].fits_budget
                      ? best_idx
                      : first_feasible(report.ranked);
  record_selection(report);
  return report;
}

AutoEngine::AutoEngine(KernelContext ctx, TunerOptions tuner_options)
    : MttkrpEngine(ctx), tuner_options_(tuner_options) {}

void AutoEngine::do_prepare(index_t rank) {
  MDCP_CHECK_MSG(rank > 0,
                 "the auto engine needs a rank hint: prepare(tensor, rank)");
  const std::size_t budget = context().mem_budget;
  // Predict under the thread budget the kernels will actually run with, so
  // the privatization memory/flop terms participate in strategy ranking.
  CostModelParams params;
  params.threads = effective_threads();
  report_ = tuner_options_.probe
                ? select_strategy_probed(tensor(), rank, budget, params,
                                         context())
                : select_strategy(tensor(), rank, budget, params,
                                  tuner_options_.history);
  record_plan_source(report_.plan_source);
  const auto& win = report_.winner();

  // Plan the degradation chain: the dtree winner first, then (under a
  // budget) every registry entry that has a footprint predictor, in
  // registration order. Fallbacks whose privatized-schedule envelope alone
  // blows the budget are retried with owner-computes pinned before being
  // ruled out.
  chain_.clear();
  chain_pos_ = 0;
  ChainEntry head;
  head.engine = "";
  head.label = "auto:" + win.strategy.name;
  head.predicted_bytes = win.prediction.total_memory_bytes();
  head.fits_budget = win.fits_budget;
  chain_.push_back(std::move(head));

  if (budget != 0) {
    ProjectionCounter counter(tensor());
    const int threads = params.threads;
    const std::size_t envelope = privatized_envelope_bytes(
        tensor(), rank, threads, ScheduleMode::kAuto);
    for (const auto& fallback : EngineRegistry::instance().entries()) {
      if (fallback.footprint == nullptr) continue;
      ChainEntry e;
      e.engine = fallback.name;
      e.label = "auto:" + fallback.name;
      const std::size_t owner_bytes =
          fallback.footprint(tensor(), rank, &counter, threads);
      e.predicted_bytes = owner_bytes + envelope;
      e.fits_budget = e.predicted_bytes <= budget;
      if (!e.fits_budget && owner_bytes <= budget) {
        e.predicted_bytes = owner_bytes;
        e.fits_budget = true;
        e.forced_sched = ScheduleMode::kOwner;
      }
      chain_.push_back(std::move(e));
    }
  }

  // Start at the first level the model predicts in budget. If no level
  // fits, run the last (cheapest) one anyway — the arena budget still
  // backstops it at run time.
  if (!chain_[0].fits_budget && chain_.size() > 1)
    advance("predicted-over-budget", /*at_prepare=*/true);
  run_on_chain(/*build=*/true, [] {});
}

ScheduleMode AutoEngine::effective_inner_sched() const noexcept {
  // An explicit caller override always wins; otherwise the chain entry may
  // pin owner-computes to keep its footprint inside the budget.
  return context().sched != ScheduleMode::kAuto
             ? context().sched
             : chain_[chain_pos_].forced_sched;
}

void AutoEngine::build_inner() {
  const ChainEntry& entry = chain_[chain_pos_];
  KernelContext ctx = context();
  ctx.sched = effective_inner_sched();
  if (entry.engine.empty()) {
    const auto& win = report_.winner();
    inner_ = std::make_unique<DTreeMttkrpEngine>(win.strategy.spec,
                                                 entry.label, ctx);
  } else {
    inner_ = make_engine(entry.engine, ctx);
  }
  prepare_unprobed(*inner_, tensor(), rank_hint());
}

void AutoEngine::advance(const char* reason, bool at_prepare) {
  do {
    note_degradation(chain_pos_, chain_pos_ + 1, reason, at_prepare);
    ++chain_pos_;
    reason = "predicted-over-budget";
  } while (chain_pos_ + 1 < chain_.size() && !chain_[chain_pos_].fits_budget);
}

template <typename Step>
void AutoEngine::run_on_chain(bool build, Step&& step) {
  for (;;) {
    const bool last = chain_pos_ + 1 >= chain_.size();
    try {
      if (build) build_inner();
      step();
      // A level that ends a step holding more than the budget (the model
      // under-counted it) hands over like one the arena stopped; the last
      // level runs over the budget anyway.
      const std::size_t budget = context().mem_budget;
      const std::size_t held = inner_->peak_memory_bytes();
      if (!last && budget != 0 && held > budget) {
        std::ostringstream os;
        os << "engine '" << chain_[chain_pos_].label << "' holds " << held
           << " B, over the memory budget";
        throw budget_error(os.str(), held, budget);
      }
      return;
    } catch (const budget_error&) {
      if (last) throw;
      advance("budget-exceeded", /*at_prepare=*/false);
    } catch (const std::bad_alloc&) {
      if (last) {
        std::ostringstream os;
        os << "allocation failed in engine '" << chain_[chain_pos_].label
           << "' and the degradation chain is exhausted";
        throw budget_error(os.str(), chain_[chain_pos_].predicted_bytes,
                           context().mem_budget);
      }
      advance("alloc-failure", /*at_prepare=*/false);
    }
    build = true;
  }
}

void AutoEngine::note_degradation(std::size_t from, std::size_t to,
                                  const char* reason, bool at_prepare) {
  MDCP_TRACE_SPAN("engine.degradation", "level",
                  static_cast<std::int64_t>(to));
  DegradationEvent ev;
  ev.from = chain_[from].label;
  ev.to = chain_[to].label;
  ev.reason = reason;
  ev.predicted_bytes = chain_[from].predicted_bytes;
  ev.budget_bytes = context().mem_budget;
  ev.at_prepare = at_prepare;
  degradations_.push_back(std::move(ev));
  record_degradation(reason);
  if (inner_)
    retired_peak_bytes_ =
        std::max(retired_peak_bytes_, inner_->peak_memory_bytes());
}

void AutoEngine::do_compute(mode_t mode, const std::vector<Matrix>& factors,
                            Matrix& out) {
  KernelStats before;
  run_on_chain(/*build=*/false, [&] {
    before = inner_->stats();
    inner_->context().sched = effective_inner_sched();  // forward overrides
    compute_unprobed(*inner_, mode, factors, out);
  });
  fold_stats(inner_->stats().since(before));
}

void AutoEngine::factor_updated(mode_t mode) {
  if (inner_) inner_->factor_updated(mode);
}

void AutoEngine::invalidate_all() {
  if (inner_) inner_->invalidate_all();
}

std::string AutoEngine::name() const {
  return inner_ ? inner_->name() : "auto";
}

std::size_t AutoEngine::memory_bytes() const {
  return inner_ ? inner_->memory_bytes() : 0;
}

std::size_t AutoEngine::peak_memory_bytes() const {
  return std::max(retired_peak_bytes_,
                  inner_ ? inner_->peak_memory_bytes() : 0);
}

}  // namespace mdcp
