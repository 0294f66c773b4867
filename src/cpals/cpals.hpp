// CP-ALS: alternating least squares for sparse CP decomposition, with a
// pluggable MTTKRP engine.
//
// The sweep driver (ALS and MU) runs the standard alternating sweep: for
// each mode n, compute the MTTKRP M^(n), form H^(n) = ∘_{i≠n} U^(i)ᵀU^(i),
// update U^(n), refresh its Gram matrix, and notify the engine that U^(n)
// changed. Only the update differs: ALS solves U^(n) = M^(n)·H⁺ and
// column-normalizes into λ; MU (cp_mu.hpp) applies the multiplicative rule.
// Convergence is monitored with the O(I·R) fit identity — the dense
// reconstruction is never formed.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cpals/kruskal.hpp"
#include "mttkrp/engine.hpp"
#include "obs/watchdog.hpp"
#include "tensor/coo_tensor.hpp"

namespace mdcp {

namespace obs {
class HistoryStore;
class RunReporter;
}  // namespace obs

struct CpAlsOptions {
  index_t rank = 16;
  int max_iterations = 50;
  real_t tolerance = 1e-5;   ///< stop when |fit − prev_fit| < tolerance
  /// Tikhonov/ridge term added to the normal-equations diagonal
  /// (H + ridge·I). Stabilizes ill-conditioned updates when components
  /// become collinear; 0 disables.
  real_t ridge = 0;
  std::uint64_t seed = 42;   ///< factor initialization seed
  /// EngineRegistry name of the MTTKRP engine; "auto" selects the
  /// model-driven tuner.
  std::string engine = "dtree-bdt";
  /// Kernel memory budget in bytes (0 = unlimited), enforced on any engine;
  /// the auto engine also plans a degradation chain under it.
  std::size_t memory_budget_bytes = 0;
  /// Projected nonnegative ALS: clamp each factor update at zero before
  /// normalization (multilinear NMF-style decompositions for count data).
  bool nonnegative = false;
  /// Numerical-recovery budget: when a factor update or the fit turns
  /// non-finite (overflow, poisoned kernel output, NaN Gram matrix), the
  /// offending factor is re-randomized from the run's RNG and the sweep
  /// continues. After this many recoveries in one run a typed
  /// mdcp::numeric_error is raised instead. 0 disables recovery (the first
  /// non-finite update throws).
  int max_recoveries = 5;
  bool verbose = false;
  /// Optional JSONL run reporter: when set, the sweep driver (ALS and MU)
  /// appends one "iteration" record per sweep (fit, fit delta, per-mode
  /// MTTKRP seconds, phase split, kernel-stats and memo hit/miss deltas)
  /// and one "summary" record at the end. The caller owns the reporter (and
  /// typically writes the provenance header first); see obs/report.hpp.
  obs::RunReporter* reporter = nullptr;
  /// Optional cross-run history store (see obs/history.hpp). When set, the
  /// auto engine takes the fastest candidate this store holds a run of at
  /// this exact tensor, rank, thread count, build and machine (else the
  /// model's pick), and the run's outcome is recorded back so later runs
  /// warm-start. The caller owns the store.
  obs::HistoryStore* history = nullptr;
  /// Whether the auto engine consults `history` (the CLI's --no-history).
  /// Recording the outcome into `history` still happens when off.
  bool use_history = true;
  /// Auto engine only: probe the model's top three feasible candidates
  /// (one warm-up and two timed sweeps each) and take the measured winner,
  /// without consulting `history`. Any other engine rejects it.
  bool probe = false;
  /// Cooperative cancellation flag (null = never cancelled). The sweep
  /// driver (ALS and MU) checks it between modes and iterations; when it
  /// flips, the run stops cleanly with result.cancelled = true and a
  /// "cancelled":true summary record instead of a hard abort. Set by
  /// `mdcp_cli --timeout-s` and by the watchdog's cancel policy.
  std::atomic<bool>* cancel = nullptr;
  /// Opt-in stall watchdog for this run (deadline_seconds <= 0 = off, the
  /// default). The sweep driver (ALS and MU) starts the monitor thread for
  /// the duration of the run; under the kCancel policy with no explicit
  /// `cancel` target it is wired to a run-local flag automatically. See
  /// obs/watchdog.hpp.
  obs::WatchdogOptions watchdog;
};

struct CpAlsResult {
  KruskalTensor model;
  std::vector<real_t> fits;  ///< fit after each iteration
  int iterations = 0;
  bool converged = false;
  std::string engine_name;

  // Per-phase wall-clock dissection (seconds over all iterations).
  double mttkrp_seconds = 0;
  /// The dense update, split by step; dense_seconds is the sum of the four.
  double dense_seconds = 0;
  double hadamard_seconds = 0;   ///< forming H = ∘_{i≠n} Gram_i (+ ridge)
  double solve_seconds = 0;      ///< normal-equation solve (+ recovery)
  double normalize_seconds = 0;  ///< column normalization into λ
  double gram_seconds = 0;       ///< Gram refresh of the updated factor
  double fit_seconds = 0;
  double total_seconds = 0;
  /// MTTKRP seconds per mode, summed over all iterations (one entry per
  /// tensor mode). Exposes the asymmetric per-mode cost the memoized
  /// engines exploit.
  std::vector<double> mttkrp_mode_seconds;

  // Numerical-recovery telemetry (see CpAlsOptions::max_recoveries and
  // la/cholesky.hpp SolveInfo).
  int recoveries = 0;             ///< factor re-randomizations taken
  int ridge_retries = 0;          ///< escalating-λ Cholesky retries, all solves
  int pseudo_inverse_solves = 0;  ///< solves that fell through to M·H⁺

  /// Engine-side counters for this run only (symbolic/numeric split, flops,
  /// peak workspace scratch) — the delta of the engine's KernelStats. Engine
  /// fallbacks taken under a memory budget appear in
  /// kernel_stats.degradations.
  KernelStats kernel_stats;

  /// Peak auxiliary memory of the engine (index structures + memoized value
  /// matrices, excluding workspace scratch) observed during the run.
  std::size_t engine_peak_memory_bytes = 0;

  // Tuner prediction for the chosen strategy when the engine was
  // model-driven (auto); zeros for fixed engines. The measured
  // counterparts are mttkrp_seconds / iterations and
  // engine_peak_memory_bytes, which makes the paper's model-accuracy
  // experiment reproducible from any ordinary run.
  double predicted_seconds_per_iteration = 0;
  std::size_t predicted_memory_bytes = 0;

  /// How the executed plan was chosen: "model" (analytic ranking),
  /// "history" (measured-best override), or "fixed" (the engine was not
  /// model-driven). Mirrored into the JSONL summary record.
  std::string plan_source;

  /// True when the run stopped at a cooperative-cancellation check (timeout,
  /// watchdog cancel policy, or a caller-set CpAlsOptions::cancel flag). The
  /// factors reflect the last completed update; converged stays false.
  bool cancelled = false;
  /// Watchdog telemetry for this run (meaningful only when
  /// CpAlsOptions::watchdog armed one).
  bool watchdog_fired = false;
  std::string watchdog_dump_path;

  real_t final_fit() const { return fits.empty() ? 0 : fits.back(); }
};

/// Creates the unprepared engine `options.engine` names, bound to the
/// memory budget and, for the model-driven engines, the history overlay.
/// cp_als, cp_als_best_of, and cp_mu build their engine through it.
std::unique_ptr<MttkrpEngine> make_cp_engine(const CpAlsOptions& options);

/// Runs CP-ALS with the engine `options.engine` names.
CpAlsResult cp_als(const CooTensor& tensor, const CpAlsOptions& options);

/// Runs CP-ALS with a caller-provided engine (reused across calls — the
/// amortized-symbolic-cost usage pattern). The engine's memoized state is
/// reset at entry.
CpAlsResult cp_als(const CooTensor& tensor, MttkrpEngine& engine,
                   const CpAlsOptions& options);

/// Multi-restart CP-ALS: runs `num_starts` times with distinct
/// initializations derived from options.seed and returns the run with the
/// best final fit. ALS is sensitive to initialization (local minima /
/// swamps); restarts are the standard mitigation, and they reuse one engine
/// so the symbolic preprocessing is paid once.
CpAlsResult cp_als_best_of(const CooTensor& tensor,
                           const CpAlsOptions& options, int num_starts);

}  // namespace mdcp
