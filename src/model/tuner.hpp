// The model-driven tuner: predict every candidate strategy, pick the best
// under the memory budget, and hand back a ready-to-run engine.
//
// This is the paper's headline loop: instead of autotuning (running every
// scheme and keeping the fastest — N× the cost of the thing being tuned) or
// hard-coding one scheme, the analytic model ranks all candidates from cheap
// sketch statistics and selects the winner up front.
#pragma once

#include <memory>
#include <vector>

#include "dtree/dtree_engine.hpp"
#include "model/cost_model.hpp"
#include "model/strategy.hpp"
#include "mttkrp/engine.hpp"
#include "obs/history.hpp"

namespace mdcp {

struct RankedStrategy {
  Strategy strategy;
  StrategyPrediction prediction;
  bool fits_budget = true;
};

struct TunerReport {
  std::vector<RankedStrategy> ranked;  ///< ascending predicted seconds
  std::size_t chosen = 0;              ///< index into `ranked`
  /// How `chosen` was decided: "model" = analytic ranking (possibly
  /// probe-corrected), "history" = measured-best override from the run
  /// history (see TunerOptions).
  const char* plan_source = "model";

  const RankedStrategy& winner() const { return ranked[chosen]; }
};

/// Empirical-feedback overlay for the tuner. When a history store is
/// attached and use_history is set, select_strategy() consults the
/// measured-best plan for this (tensor fingerprint, rank) and — once that
/// strategy has earned trust.min_weight of trust-weighted observations —
/// prefers it over the analytic ranking (budget feasibility still wins:
/// history never overrides onto an over-budget candidate). The probe path
/// keeps the override only if probing agrees nothing faster was shortlisted.
struct TunerOptions {
  bool use_history = true;               ///< master switch (--no-history)
  const obs::HistoryStore* history = nullptr;  ///< null = overlay disabled
  /// Trust policy for measured_best(); min_weight is the "warm-start after
  /// K observations" knob (same build/machine observations weigh 1 each).
  obs::TrustPolicy trust;
};

/// One fallback taken by the AutoEngine's degradation chain: a predicted or
/// actual allocation exceeded the memory budget, so execution moved to a
/// cheaper engine instead of dying.
struct DegradationEvent {
  std::string from;  ///< engine label degraded away from
  std::string to;    ///< engine label degraded to
  /// "predicted-over-budget" (model, at prepare), "budget-exceeded"
  /// (workspace arena tripped the budget at run time), or "alloc-failure"
  /// (std::bad_alloc — real or injected).
  const char* reason = "";
  std::size_t predicted_bytes = 0;  ///< footprint of the abandoned engine
  std::size_t budget_bytes = 0;     ///< budget in force (0 = unlimited)
  bool at_prepare = false;          ///< true = model-predicted, before any run
};

/// Ranks all candidate strategies for `tensor` at `rank`.
/// `memory_budget_bytes` bounds symbolic + peak value memory (0 = unlimited);
/// if nothing fits, the minimum-memory strategy is chosen and flagged.
TunerReport select_strategy(const CooTensor& tensor, index_t rank,
                            std::size_t memory_budget_bytes = 0,
                            const CostModelParams& params = {},
                            const TunerOptions& options = {});

/// Hybrid model+probe selection: the analytic model shortlists the
/// `shortlist` budget-feasible candidates, one real MTTKRP sweep of each is
/// measured, and the measured winner is chosen. Costs ~`shortlist` sweeps up
/// front (still far below exhaustive autotuning) and removes the residual
/// model error on tensors whose cache behaviour the flop/byte counts miss.
/// Returns the report re-ranked with `chosen` pointing at the probed winner.
/// Probe engines draw scratch from `ctx` (workspace/threads).
TunerReport select_strategy_probed(const CooTensor& tensor, index_t rank,
                                   std::size_t memory_budget_bytes = 0,
                                   const CostModelParams& params = {},
                                   int shortlist = 3, KernelContext ctx = {},
                                   const TunerOptions& options = {});

/// MTTKRP engine whose strategy is chosen by the tuner at prepare() time.
/// prepare(tensor, rank) runs the model (rank > 0 required — the prediction
/// is rank-dependent), optionally probes the shortlist, then builds and
/// prepares the winning dimension-tree engine. name() reports
/// "auto:<strategy>" (or "auto+probe:<strategy>") once prepared.
///
/// Under a memory budget (KernelContext::mem_budget) the engine also plans a
/// degradation chain: the dtree winner, then every EngineRegistry entry with
/// a footprint predictor in registration order (alto → csf → coo), each
/// annotated with its predicted footprint. Levels the model predicts over
/// budget are skipped up front ("predicted-over-budget"); a budget_error or
/// bad_alloc escaping the active level at prepare or compute time advances
/// the chain and retries ("budget-exceeded" / "alloc-failure"). Every fallback is recorded as a
/// DegradationEvent, mirrored into KernelStats.degradations, the
/// "engine.degradations" metric, and a trace span. Only when the last level
/// also fails does a typed mdcp::budget_error escape.
///
/// The inner engine runs unprobed (MttkrpEngine::compute_unprobed): this
/// engine's prepare()/compute() probe and count each call once, and the
/// inner engine's flops and launches are folded into this engine's stats.
class AutoEngine final : public MttkrpEngine {
 public:
  explicit AutoEngine(bool probed = false, KernelContext ctx = {},
                      TunerOptions tuner_options = {});

  void factor_updated(mode_t mode) override;
  void invalidate_all() override;
  std::string name() const override;
  std::size_t memory_bytes() const override;
  std::size_t peak_memory_bytes() const override;

  /// The tuner's full ranking from the last prepare().
  const TunerReport& report() const { return report_; }

  /// One level of the planned degradation chain.
  struct ChainEntry {
    std::string engine;  ///< registry name; "" = the winning dtree strategy
    std::string label;   ///< display name ("auto:…")
    std::size_t predicted_bytes = 0;  ///< model footprint for this level
    bool fits_budget = true;
    /// Schedule pinned for this level when the privatized envelope alone
    /// would blow the budget (kAuto = no pin).
    ScheduleMode forced_sched = ScheduleMode::kAuto;
  };

  /// The chain planned by the last prepare(): winner first, then in-order
  /// fallbacks (present only when a budget is set).
  const std::vector<ChainEntry>& chain() const noexcept { return chain_; }
  /// Index into chain() of the level currently executing.
  std::size_t chain_position() const noexcept { return chain_pos_; }
  /// Every fallback taken since construction (prepare- and run-time), in
  /// order. Callers that report incrementally should keep their own cursor.
  const std::vector<DegradationEvent>& degradation_events() const noexcept {
    return degradations_;
  }

 protected:
  void do_prepare(index_t rank) override;
  void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                  Matrix& out) override;

 private:
  void build_inner(index_t rank);
  void note_degradation(std::size_t from, std::size_t to, const char* reason,
                        bool at_prepare);
  ScheduleMode effective_inner_sched() const noexcept;

  bool probed_;
  TunerOptions tuner_options_;
  TunerReport report_;
  std::vector<ChainEntry> chain_;
  std::size_t chain_pos_ = 0;
  std::vector<DegradationEvent> degradations_;
  std::size_t retired_peak_bytes_ = 0;  ///< peaks of degraded-away engines
  std::unique_ptr<MttkrpEngine> inner_;
};

}  // namespace mdcp
