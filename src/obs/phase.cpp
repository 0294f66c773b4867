#include "obs/phase.hpp"

#include <cstring>

namespace mdcp::obs {

#if MDCP_ENABLE_TRACING
namespace {

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

}  // namespace
#endif

Phase::Phase(FrPhase phase, const char* name, std::int64_t arg,
             double& seconds) noexcept
    : seconds_(seconds), arg_(arg), phase_(phase) {
#if MDCP_ENABLE_TRACING
  if (Tracer::instance().enabled()) {
    traced_ = true;
    std::strncpy(name_, name, sizeof(name_) - 1);
    name_[sizeof(name_) - 1] = '\0';
  }
#else
  (void)name;
#endif
  begin_ns_ = clock_ns();
  FlightRecorder::instance().beat_at(begin_ns_, phase_, arg_);
}

Phase::~Phase() {
  const std::uint64_t end_ns = clock_ns();
  seconds_ += ns_to_seconds(begin_ns_, end_ns);
  FlightRecorder::instance().beat_at(end_ns, phase_, arg_);
#if MDCP_ENABLE_TRACING
  if (traced_)
    Tracer::instance().record(name_, begin_ns_, end_ns - begin_ns_,
                              arg_name(phase_), arg_);
#endif
}

}  // namespace mdcp::obs
