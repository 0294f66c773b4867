// Abstract interface for MTTKRP computation engines.
//
// CP-ALS (and the benchmarks) are written against this interface so that the
// COO baselines, the linearized ALTO-style engine, the SPLATT-style CSF
// kernel, and the memoized dimension-tree engines are interchangeable — and
// so the model-driven tuner can swap in whichever strategy it predicts to be
// fastest.
//
// Lifecycle: every engine is constructed from a KernelContext (workspace +
// thread budget + schedule override + memory budget), then runs an explicit
// two-phase protocol:
//
//   engine.prepare(tensor, rank);          // symbolic phase: build index
//                                          //   structures, reserve scratch
//   engine.compute(mode, factors, out);    // numeric phase: allocation-free,
//                                          //   scratch from the workspace
//
// The base class wraps both phases (non-virtual interface): each runs inside
// one obs::Phase probe, which times it into KernelStats and feeds the trace
// and the flight-recorder heartbeat; the wrapper applies
// the context's thread override and tracks the workspace scratch high-water
// mark, so every engine reports uniform KernelStats without touching a timer
// itself. Subclasses implement do_prepare()/do_compute(). An engine that
// runs another engine (AutoEngine) reaches it through prepare_unprobed()/
// compute_unprobed() and fold_stats(), so each logical call is probed and
// counted once. The convenience constructors that take a tensor call
// prepare() immediately; either way the tensor must outlive the engine.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "sched/schedule.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/workspace.hpp"

namespace mdcp {

class MttkrpEngine {
 public:
  explicit MttkrpEngine(KernelContext ctx = {});
  virtual ~MttkrpEngine() = default;

  /// Symbolic phase: binds the engine to `tensor` (which must outlive it)
  /// and builds all index structures. `rank` is a hint used to pre-reserve
  /// per-thread scratch and by rank-dependent engines (the tuner); 0 =
  /// unknown, scratch is then sized at the first compute(). May be called
  /// again to re-target the engine at a different tensor.
  void prepare(const CooTensor& tensor, index_t rank = 0);

  /// Numeric phase: out = MTTKRP(X, {factors}, mode) — the matricized
  /// tensor in `mode` times the Khatri–Rao product of all other factors.
  /// `out` is resized to (dim(mode) × R). `factors` must contain one I_m×R
  /// matrix per mode, all with the same column count R. Requires prepare();
  /// draws all scratch from the context workspace (no heap allocation on
  /// the steady-state path). Runs under FlushSubnormals (util/fpenv.hpp) on
  /// the calling thread and on every kernel thread: results below DBL_MIN
  /// are 0, and the caller's MXCSR is restored on return.
  void compute(mode_t mode, const std::vector<Matrix>& factors, Matrix& out);

  bool prepared() const noexcept { return tensor_ != nullptr; }

  /// Notifies the engine that factor matrix `mode` has changed since the
  /// last compute() call. Engines that memoize partial products use this to
  /// invalidate stale intermediates; stateless engines ignore it.
  virtual void factor_updated(mode_t mode) { (void)mode; }

  /// Drops all memoized state (stateless engines: no-op).
  virtual void invalidate_all() {}

  /// Engine identifier for logs and benchmark tables.
  virtual std::string name() const = 0;

  /// Bytes of auxiliary structures currently held (index arrays, memoized
  /// value matrices, CSF fibers, ...), excluding the input tensor itself
  /// and the shared workspace.
  virtual std::size_t memory_bytes() const { return 0; }

  /// Peak bytes of auxiliary structures observed so far.
  virtual std::size_t peak_memory_bytes() const { return memory_bytes(); }

  /// Per-engine counters recorded by prepare()/compute().
  const KernelStats& stats() const noexcept { return stats_; }

  KernelContext& context() noexcept { return ctx_; }
  const KernelContext& context() const noexcept { return ctx_; }
  Workspace& workspace() const noexcept { return *ctx_.workspace; }

  /// Threads the next kernel launch will use (the context override, or the
  /// library-wide setting).
  int effective_threads() const noexcept;

 protected:
  /// Builds the engine's symbolic structures for tensor() at rank hint
  /// `rank`. Called with the thread override already applied.
  virtual void do_prepare(index_t rank) = 0;

  /// The numeric kernel. Scratch must come from workspace().
  virtual void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                          Matrix& out) = 0;

  /// The tensor bound by prepare(). Throws if not prepared.
  const CooTensor& tensor() const;

  /// Rank hint passed to prepare() (0 = unknown).
  index_t rank_hint() const noexcept { return rank_hint_; }

  /// Records approximate numeric flops into stats() and kernel.flops.
  void count_flops(std::uint64_t flops) noexcept;

  /// Records one scheduled parallel launch into stats(), metrics, and trace
  /// (schedule, tile count, heuristic reason). Engines call this once per
  /// launch; the last call of a compute() defines last_schedule.
  void record_schedule(const sched::Decision& d) noexcept;

  /// Bulk form for engines that run a chain of launches before reporting
  /// (the dimension-tree node evaluations): `d` is the last launch's
  /// decision, the counts cover the whole chain.
  void record_schedule(const sched::Decision& d, std::uint64_t owner_launches,
                       std::uint64_t privatized_launches) noexcept;

  /// Records how the prepared plan was chosen ("model" or "history"; see
  /// obs/history.hpp) into stats() and the tuner.plan_source trace
  /// span. `source` must be a static string.
  void record_plan_source(const char* source) noexcept;

  /// Records one degradation-chain fallback (see model/tuner.hpp) into
  /// stats() and the "engine.degradations" metric. `reason` must be a
  /// static string ("predicted-over-budget", "budget-exceeded",
  /// "alloc-failure").
  void record_degradation(const char* reason) noexcept;

  /// Records the microkernel R-tile width selected for this compute() (see
  /// mttkrp/microkernel.hpp) into stats() and a trace span, so bench
  /// meta and the `mdcp_cli profile` rows name the tile actually run.
  /// `tile` ∈ {32, 16, 8, 0}.
  void record_tile(index_t tile) noexcept;

  /// Schedule override from the context (kAuto = per-mode heuristic).
  ScheduleMode schedule_mode() const noexcept { return ctx_.sched; }

  /// The symbolic and numeric phases of `engine` without the probe or any
  /// counter: bind the tensor, install the context budget, apply the thread
  /// override, run do_prepare()/do_compute(). prepare()/compute() wrap these;
  /// a wrapper engine calls them on its inner engine so that each logical
  /// call is probed once, by the wrapper.
  static void prepare_unprobed(MttkrpEngine& engine, const CooTensor& tensor,
                               index_t rank);
  static void compute_unprobed(MttkrpEngine& engine, mode_t mode,
                               const std::vector<Matrix>& factors,
                               Matrix& out);

  /// Adds an inner engine's kernel counters (`delta`: flops, launches, last
  /// schedule and tile) into stats() only. The inner engine already put
  /// them into the metrics and the trace.
  void fold_stats(const KernelStats& delta) noexcept;

  KernelContext ctx_;

 private:
  const CooTensor* tensor_ = nullptr;
  index_t rank_hint_ = 0;
  KernelStats stats_;
  // Span label for the numeric phase ("mttkrp:<name>"), cached at prepare()
  // time so compute() never allocates for tracing; a degradation clears it
  // and the next compute() re-derives it from the new name().
  std::string trace_label_;
};

/// Checks that the factor list is consistent with the tensor: one matrix per
/// mode, rows match mode sizes, uniform column count. Returns R.
index_t check_factors(const CooTensor& tensor,
                      const std::vector<Matrix>& factors);

/// Reference MTTKRP: direct quadratic-in-order evaluation straight from the
/// definition, single-threaded. Used as the oracle in tests.
void mttkrp_reference(const CooTensor& tensor,
                      const std::vector<Matrix>& factors, mode_t mode,
                      Matrix& out);

}  // namespace mdcp
