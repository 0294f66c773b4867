#include "mttkrp/engine.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/fpenv.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// Registry references resolved once — the NVI wrappers run once per
// prepare()/compute(), so metric updates must stay at relaxed-atomic cost.
obs::Counter& prepare_calls_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernel.prepare_calls");
  return c;
}
obs::Counter& compute_calls_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernel.compute_calls");
  return c;
}
obs::Counter& flops_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernel.flops");
  return c;
}
obs::Gauge& symbolic_seconds_metric() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("kernel.symbolic_seconds");
  return g;
}
obs::Gauge& numeric_seconds_metric() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("kernel.numeric_seconds");
  return g;
}
obs::Gauge& peak_scratch_metric() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("workspace.peak_scratch_bytes");
  return g;
}
obs::Counter& owner_launches_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("sched.owner_launches");
  return c;
}
obs::Counter& privatized_launches_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("sched.privatized_launches");
  return c;
}
obs::Counter& degradations_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.degradations");
  return c;
}

}  // namespace

MttkrpEngine::MttkrpEngine(KernelContext ctx) : ctx_(ctx) {
  if (ctx_.workspace == nullptr) ctx_.workspace = &default_workspace();
}

void MttkrpEngine::prepare_unprobed(MttkrpEngine& engine,
                                    const CooTensor& tensor, index_t rank) {
  engine.tensor_ = &tensor;
  engine.rank_hint_ = rank;
  // The context budget governs this execution: install it on the arena so
  // over-budget scratch growth fails as a typed budget_error instead of an
  // unbounded allocation.
  const KernelContext& ctx = engine.ctx_;
  if (ctx.mem_budget != 0) ctx.workspace->set_budget_bytes(ctx.mem_budget);
  ThreadScope scope(ctx.threads);
  engine.do_prepare(rank);
}

void MttkrpEngine::compute_unprobed(MttkrpEngine& engine, mode_t mode,
                                    const std::vector<Matrix>& factors,
                                    Matrix& out) {
  ThreadScope scope(engine.ctx_.threads);
  engine.do_compute(mode, factors, out);
}

void MttkrpEngine::prepare(const CooTensor& tensor, index_t rank) {
  const double before = stats_.symbolic_seconds;
  {
    obs::Phase phase(obs::FrPhase::kPrepare, ("prepare:" + name()).c_str(),
                     static_cast<std::int64_t>(rank), stats_.symbolic_seconds);
    obs::fr_record(obs::FrEvent::kPrepareBegin, obs::FrPhase::kPrepare,
                   static_cast<std::int64_t>(rank));
    prepare_unprobed(*this, tensor, rank);
    obs::fr_record(obs::FrEvent::kPrepareEnd, obs::FrPhase::kPrepare);
  }
  // name() may change during do_prepare (the auto engine resolves to its
  // chosen strategy), so the compute-span label is cached afterwards.
  trace_label_ = "mttkrp:" + name();
  ++stats_.prepare_calls;
  prepare_calls_metric().add();
  symbolic_seconds_metric().add(stats_.symbolic_seconds - before);
}

void MttkrpEngine::compute(mode_t mode, const std::vector<Matrix>& factors,
                           Matrix& out) {
  const FlushSubnormals fp;
  MDCP_CHECK_MSG(prepared(), "engine " << name()
                                       << ": compute() before prepare()");
  if (trace_label_.empty()) trace_label_ = "mttkrp:" + name();
  const double before = stats_.numeric_seconds;
  {
    obs::Phase phase(obs::FrPhase::kCompute, trace_label_.c_str(),
                     static_cast<std::int64_t>(mode), stats_.numeric_seconds);
    obs::fr_record(obs::FrEvent::kComputeBegin, obs::FrPhase::kCompute,
                   static_cast<std::int64_t>(mode));
    // Fault-injection site: deterministic liveness stall so watchdog firing
    // is testable without wall-clock flakiness. The sleeping thread stops
    // beating, which is exactly the signal the watchdog watches for.
    if (fault::should_inject(fault::Site::kStall)) {
      obs::fr_record(
          obs::FrEvent::kStall, obs::FrPhase::kCompute,
          static_cast<std::int64_t>(
              fault::FaultPlan::instance().config(fault::Site::kStall)
                  .threshold));
      fault::inject_stall();
    }
    compute_unprobed(*this, mode, factors, out);
    obs::fr_record(obs::FrEvent::kComputeEnd, obs::FrPhase::kCompute,
                   static_cast<std::int64_t>(mode));
    // Fault-injection site: poison the kernel output with a quiet NaN so the
    // CP-ALS numerical-recovery path can be exercised deterministically.
    // Compiled to nothing without MDCP_ENABLE_FAULTINJECT.
    if (fault::should_inject(fault::Site::kNan) && out.size() > 0)
      out(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  }
  ++stats_.compute_calls;
  stats_.peak_scratch_bytes =
      std::max(stats_.peak_scratch_bytes, ctx_.workspace->peak_bytes());
  compute_calls_metric().add();
  numeric_seconds_metric().add(stats_.numeric_seconds - before);
  peak_scratch_metric().record_max(
      static_cast<double>(ctx_.workspace->peak_bytes()));
}

const CooTensor& MttkrpEngine::tensor() const {
  MDCP_CHECK_MSG(tensor_ != nullptr, "engine not prepared");
  return *tensor_;
}

void MttkrpEngine::count_flops(std::uint64_t flops) noexcept {
  stats_.flops += flops;
  flops_metric().add(flops);
}

void MttkrpEngine::record_schedule(const sched::Decision& d) noexcept {
  const bool priv = d.schedule == sched::Schedule::kPrivatized;
  record_schedule(d, priv ? 0 : 1, priv ? 1 : 0);
}

void MttkrpEngine::record_schedule(const sched::Decision& d,
                                   std::uint64_t owner_launches,
                                   std::uint64_t privatized_launches) noexcept {
  MDCP_TRACE_SPAN(d.schedule == sched::Schedule::kPrivatized
                      ? "sched.privatized"
                      : "sched.owner",
                  "tiles", static_cast<std::int64_t>(d.tiles));
  obs::fr_record(obs::FrEvent::kTileBatch, obs::FrPhase::kCompute,
                 static_cast<std::int64_t>(d.tiles),
                 static_cast<std::int64_t>(d.schedule));
  owner_launches_metric().add(owner_launches);
  privatized_launches_metric().add(privatized_launches);
  stats_.owner_launches += owner_launches;
  stats_.privatized_launches += privatized_launches;
  stats_.last_schedule = static_cast<std::uint8_t>(d.schedule);
  stats_.last_tiles = d.tiles;
  stats_.last_sched_reason = d.reason;
}

void MttkrpEngine::record_tile(index_t tile) noexcept {
  MDCP_TRACE_SPAN("mk.tile", "width", static_cast<std::int64_t>(tile));
  stats_.last_tile = tile;
}

void MttkrpEngine::fold_stats(const KernelStats& delta) noexcept {
  stats_.flops += delta.flops;
  stats_.owner_launches += delta.owner_launches;
  stats_.privatized_launches += delta.privatized_launches;
  if (delta.last_schedule != 255) {
    stats_.last_schedule = delta.last_schedule;
    stats_.last_tiles = delta.last_tiles;
    stats_.last_sched_reason = delta.last_sched_reason;
  }
  stats_.last_tile = delta.last_tile;
}

void MttkrpEngine::record_plan_source(const char* source) noexcept {
  MDCP_TRACE_SPAN("tuner.plan_source", "history",
                  static_cast<std::int64_t>(
                      std::string_view(source) == "history" ? 1 : 0));
  stats_.plan_source = source;
}

void MttkrpEngine::record_degradation(const char* reason) noexcept {
  obs::fr_record(obs::FrEvent::kDegradation, obs::FrPhase::kCompute);
  ++stats_.degradations;
  stats_.last_degradation_reason = reason;
  degradations_metric().add();
  trace_label_.clear();
}

int MttkrpEngine::effective_threads() const noexcept {
  return ctx_.threads > 0 ? ctx_.threads : num_threads();
}

index_t check_factors(const CooTensor& tensor,
                      const std::vector<Matrix>& factors) {
  MDCP_CHECK_MSG(factors.size() == tensor.order(),
                 "need one factor matrix per mode");
  MDCP_CHECK_MSG(!factors.empty() && factors[0].cols() > 0,
                 "factor matrices must have positive rank");
  const index_t r = factors[0].cols();
  for (mode_t m = 0; m < tensor.order(); ++m) {
    MDCP_CHECK_MSG(factors[m].rows() == tensor.dim(m),
                   "factor " << m << " row count " << factors[m].rows()
                             << " != mode size " << tensor.dim(m));
    MDCP_CHECK_MSG(factors[m].cols() == r, "factor ranks differ across modes");
  }
  return r;
}

void mttkrp_reference(const CooTensor& tensor,
                      const std::vector<Matrix>& factors, mode_t mode,
                      Matrix& out) {
  const index_t r = check_factors(tensor, factors);
  out.resize(tensor.dim(mode), r, 0);
  for (nnz_t i = 0; i < tensor.nnz(); ++i) {
    const index_t row = tensor.index(mode, i);
    for (index_t k = 0; k < r; ++k) {
      real_t prod = tensor.value(i);
      for (mode_t m = 0; m < tensor.order(); ++m) {
        if (m == mode) continue;
        prod *= factors[m](tensor.index(m, i), k);
      }
      out(row, k) += prod;
    }
  }
}

}  // namespace mdcp
