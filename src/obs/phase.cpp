#include "obs/phase.hpp"

#include <array>
#include <cstring>
#include <string>

#include "obs/metrics.hpp"

namespace mdcp::obs {

namespace {

// Counting phases currently open on this thread; only the outermost one
// adds its deltas to the perf.* metrics.
thread_local int t_counting_depth = 0;

const char* arg_name(FrPhase phase) noexcept {
  switch (phase) {
    case FrPhase::kPrepare: return "rank";
    case FrPhase::kCompute:
    case FrPhase::kSolve: return "mode";
    case FrPhase::kFit:
    case FrPhase::kIteration: return "iter";
    default: return nullptr;
  }
}

// The perf.* counters, one per PerfCounterId, registered on first use.
Counter& perf_metric(std::size_t i) {
  static const std::array<Counter*, kPerfCounterCount> metrics = [] {
    std::array<Counter*, kPerfCounterCount> m{};
    for (std::size_t c = 0; c < kPerfCounterCount; ++c)
      m[c] = &MetricsRegistry::instance().counter(
          std::string("perf.") +
          perf_counter_name(static_cast<PerfCounterId>(c)));
    return m;
  }();
  return *metrics[i];
}

}  // namespace

Phase::Phase(FrPhase phase, const char* name, std::int64_t arg,
             double& seconds) noexcept
    : seconds_(seconds),
      perf_set_(Perf::instance().process_set()),
      arg_(arg),
      phase_(phase) {
#if MDCP_ENABLE_TRACING
  if (Tracer::instance().enabled()) {
    traced_ = true;
    std::strncpy(name_, name, sizeof(name_) - 1);
    name_[sizeof(name_) - 1] = '\0';
  }
#else
  (void)name;
#endif
  if (perf_set_ != nullptr) {
    perf_begin_ = perf_set_->read_values();
    ++t_counting_depth;
  }
  begin_ns_ = clock_ns();
  FlightRecorder::instance().beat_at(begin_ns_, phase_, arg_);
}

Phase::~Phase() {
  const std::uint64_t end_ns = clock_ns();
  seconds_ += ns_to_seconds(begin_ns_, end_ns);
  FlightRecorder::instance().beat_at(end_ns, phase_, arg_);
  PerfValues delta;
  if (perf_set_ != nullptr) {
    delta = perf_set_->read_values().since(perf_begin_);
    if (--t_counting_depth == 0) {
      for (std::size_t i = 0; i < kPerfCounterCount; ++i)
        if ((delta.valid_mask >> i) & 1u) perf_metric(i).add(delta.value[i]);
    }
  }
#if MDCP_ENABLE_TRACING
  if (traced_) {
    TraceEvent ev{};
    std::memcpy(ev.name, name_, sizeof(ev.name));
    ev.ts_ns = begin_ns_;
    ev.dur_ns = end_ns - begin_ns_;
    ev.arg_name = arg_name(phase_);
    ev.arg_value = arg_;
    ev.perf_mask = delta.valid_mask;
    for (std::size_t i = 0; i < kPerfCounterCount; ++i)
      ev.perf[i] = delta.value[i];
    Tracer::instance().record_event(ev);
  }
#endif
}

}  // namespace mdcp::obs
