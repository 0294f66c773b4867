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
  /// How `chosen` was decided: "model" = analytic ranking (probe-corrected
  /// under TunerOptions::probe), "history" = the run history's measured
  /// fastest candidate (see select_strategy).
  const char* plan_source = "model";

  const RankedStrategy& winner() const { return ranked[chosen]; }
};

/// The AutoEngine's measured corrections to the model's pick, one rule each
/// (docs/tuning.md).
struct TunerOptions {
  /// Run history consulted by select_strategy() (null = none).
  const obs::HistoryStore* history = nullptr;
  /// Probe the model's top three feasible candidates and take the measured
  /// winner (select_strategy_probed); the history is not consulted.
  bool probe = false;
};

/// One fallback taken by the AutoEngine's degradation chain: a predicted or
/// actual allocation exceeded the memory budget, so execution moved to a
/// cheaper engine instead of dying.
struct DegradationEvent {
  std::string from;  ///< engine label degraded away from
  std::string to;    ///< engine label degraded to
  /// "predicted-over-budget" (the model says `from` cannot fit: at
  /// prepare, or passed over by a run-time fallback), "budget-exceeded"
  /// (workspace arena tripped the budget), or "alloc-failure"
  /// (std::bad_alloc — real or injected).
  const char* reason = "";
  std::size_t predicted_bytes = 0;  ///< footprint of the abandoned engine
  std::size_t budget_bytes = 0;     ///< budget in force (0 = unlimited)
  bool at_prepare = false;  ///< true = planned in prepare(), before any run
};

/// Ranks all candidate strategies for `tensor` at `rank` on
/// `params.threads` threads. `memory_budget_bytes` bounds symbolic + peak
/// value memory (0 = unlimited); if nothing fits, the minimum-memory
/// strategy is chosen and flagged. With a `history` store, the fastest
/// budget-feasible candidate that has a stored run of this exact tensor
/// fingerprint, rank, thread count, build and machine replaces the model's
/// pick (plan_source "history"); with no such run the model's pick stands.
TunerReport select_strategy(const CooTensor& tensor, index_t rank,
                            std::size_t memory_budget_bytes = 0,
                            const CostModelParams& params = {},
                            const obs::HistoryStore* history = nullptr);

/// Hybrid model+probe selection: the model's top three budget-feasible
/// candidates each run one warm-up and two timed MTTKRP sweeps (9 sweeps in
/// all, still far below exhaustive autotuning), and the fastest timed sweep
/// wins. Removes the residual model error on tensors whose cache behaviour
/// the flop/byte counts miss. Returns the report with `chosen` pointing at
/// the probed winner. Probe engines draw scratch from `ctx`
/// (workspace/threads).
TunerReport select_strategy_probed(const CooTensor& tensor, index_t rank,
                                   std::size_t memory_budget_bytes = 0,
                                   const CostModelParams& params = {},
                                   KernelContext ctx = {});

/// MTTKRP engine whose strategy is chosen by the tuner at prepare() time.
/// prepare(tensor, rank) runs the model (rank > 0 required — the prediction
/// is rank-dependent) with the TunerOptions corrections, then builds and
/// prepares the winning dimension-tree engine. name() reports
/// "auto:<strategy>" once prepared.
///
/// Under a memory budget (KernelContext::mem_budget) the engine also plans a
/// degradation chain: the dtree winner, then every EngineRegistry entry with
/// a footprint predictor in registration order (alto → coo), each annotated
/// with its predicted footprint. One rule moves along the chain, at prepare
/// and at compute time alike: the engine goes to the next level the model
/// predicts in budget, or to the last level when none is. It moves when the
/// active level is predicted over budget ("predicted-over-budget"), when a
/// budget_error or bad_alloc escapes it ("budget-exceeded" /
/// "alloc-failure"), or when a level other than the last ends a step
/// holding more than the budget ("budget-exceeded"), and then retries. Every level passed is recorded as a
/// DegradationEvent, mirrored into KernelStats.degradations, the
/// "engine.degradations" metric, and a trace span. Only when the last level
/// also fails does a typed mdcp::budget_error escape.
///
/// The inner engine runs unprobed (MttkrpEngine::compute_unprobed): this
/// engine's prepare()/compute() probe and count each call once, and the
/// inner engine's flops and launches are folded into this engine's stats.
class AutoEngine final : public MttkrpEngine {
 public:
  explicit AutoEngine(KernelContext ctx = {}, TunerOptions tuner_options = {});

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
  /// Builds and prepares the active level as inner_.
  void build_inner();
  /// Leaves the active level for the next level predicted in budget, or the
  /// last level; the first hop is recorded with `reason`, every level
  /// skipped after it as "predicted-over-budget".
  void advance(const char* reason, bool at_prepare);
  /// Runs `step` on the active level (built first when `build` is set). A
  /// budget_error or bad_alloc escaping it, or a peak over the budget on a
  /// level other than the last, advances the chain and retries on the new
  /// level, built afresh, until the last level fails.
  template <typename Step>
  void run_on_chain(bool build, Step&& step);
  void note_degradation(std::size_t from, std::size_t to, const char* reason,
                        bool at_prepare);
  ScheduleMode effective_inner_sched() const noexcept;

  TunerOptions tuner_options_;
  TunerReport report_;
  std::vector<ChainEntry> chain_;
  std::size_t chain_pos_ = 0;
  std::vector<DegradationEvent> degradations_;
  std::size_t retired_peak_bytes_ = 0;  ///< peaks of degraded-away engines
  std::unique_ptr<MttkrpEngine> inner_;
};

}  // namespace mdcp
