// Low-overhead span tracer with Chrome trace-event JSON export.
//
// Instrumentation sites wrap a scope in MDCP_TRACE_SPAN("name") (optionally
// with one integer argument: MDCP_TRACE_SPAN("cpals.mode", "mode", n)). Each
// completed span is pushed into a fixed-capacity *thread-local ring buffer*
// — no locks, no allocation on the hot path; when a ring overflows, the
// oldest events are overwritten (the newest survive) and the drop is
// counted. Tracer::write_chrome_json() serializes every thread's ring as
// Chrome trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing.
//
// Cost model:
//   * MDCP_ENABLE_TRACING=0 (CMake option OFF): the macro expands to
//     nothing — zero code, zero data, zero argument evaluation.
//   * compiled in but disabled (the default at runtime): one relaxed
//     atomic load per span site.
//   * enabled: two clock reads plus one bounded memcpy into the ring.
//
// Mutating calls (set_enabled, set_ring_capacity, clear) and exports must
// run outside traced parallel regions: ring pushes are single-writer
// (thread-local) and intentionally unsynchronized with the exporter.
#pragma once

#ifndef MDCP_ENABLE_TRACING
#define MDCP_ENABLE_TRACING 1
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace mdcp::obs {

/// One completed span. POD so ring storage is a flat array.
///
/// Spans recorded by an obs::Phase additionally carry hardware-counter
/// deltas: `perf[i]` is valid iff bit i of `perf_mask` is set (slot order is
/// obs::PerfCounterId). They are exported into the Chrome trace "args"
/// object, so Perfetto shows cycles/misses per span.
struct TraceEvent {
  static constexpr std::size_t kNameCapacity = 48;
  /// Must cover obs::kPerfCounterCount (static_assert in perf.hpp).
  static constexpr std::size_t kPerfSlots = 8;

  char name[kNameCapacity];     ///< NUL-terminated, truncated if longer
  std::uint64_t ts_ns;          ///< begin timestamp (obs::clock_ns)
  std::uint64_t dur_ns;         ///< duration
  std::uint32_t tid;            ///< tracer-assigned thread index
  const char* arg_name;         ///< static-storage literal or nullptr
  std::int64_t arg_value;
  std::uint64_t perf[kPerfSlots];  ///< counter deltas (see perf_mask)
  std::uint16_t perf_mask;         ///< bit i set = perf[i] is valid
};

/// Fixed-capacity single-writer ring of TraceEvents. Overflow overwrites the
/// oldest entry and bumps the drop count (`pushed() - kept()`).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity, std::uint32_t tid);

  void push(const TraceEvent& ev) noexcept {
    ring_[static_cast<std::size_t>(pushed_ % ring_.size())] = ev;
    ++pushed_;
  }

  std::uint64_t pushed() const noexcept { return pushed_; }
  std::uint64_t kept() const noexcept {
    return pushed_ < ring_.size() ? pushed_ : ring_.size();
  }
  std::uint64_t dropped() const noexcept { return pushed_ - kept(); }
  std::uint32_t tid() const noexcept { return tid_; }

  /// Human-readable name exported as Chrome thread_name metadata (empty =
  /// the tracer's default "mdcp-thread-N" label).
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Oldest-first copy of the retained events.
  std::vector<TraceEvent> events() const;

  void clear() noexcept { pushed_ = 0; }
  void set_capacity(std::size_t capacity);

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t pushed_ = 0;
  std::uint32_t tid_ = 0;
  std::string name_;
};

/// Process-wide tracer: owns one TraceRing per thread that ever recorded a
/// span, plus the runtime on/off switch.
class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;  // per thread

  static Tracer& instance();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Resizes every existing ring and sets the capacity for rings created
  /// later. Call while disabled; retained events are discarded.
  void set_ring_capacity(std::size_t events_per_thread);

  /// Discards all retained events and drop counts (rings stay allocated).
  void clear();

  /// Events currently retained / total dropped, summed over all rings.
  std::uint64_t retained_events() const;
  std::uint64_t dropped_events() const;

  /// All retained events (per-ring oldest-first order, rings concatenated).
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace-event JSON of the current contents. Timestamps are
  /// rebased to the earliest retained event.
  std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  /// Records one completed span into the calling thread's ring.
  void record(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
              const char* arg_name, std::int64_t arg_value) noexcept;

  /// Records a fully-populated event (perf payload included) into the
  /// calling thread's ring; `ev.tid` is overwritten with the ring's id.
  void record_event(TraceEvent& ev) noexcept;

  /// Names the process track in the Chrome export (default "mdcp"). Call
  /// from application startup, outside traced parallel regions.
  void set_process_name(std::string name);
  std::string process_name() const;

  /// Names the calling thread's track in the Chrome export (e.g. "main",
  /// "omp-3"). Creates the thread's ring if it does not exist yet.
  void set_current_thread_name(std::string name);

 private:
  Tracer() = default;
  TraceRing& local_ring_();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards rings_ + process_name_
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  std::string process_name_ = "mdcp";
};

/// RAII span: captures the begin timestamp at construction (if the tracer is
/// enabled) and records the completed event at scope exit. The name is
/// copied, so temporaries are fine; `arg_name` must be a string literal (it
/// is stored by pointer).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* arg_name = nullptr,
                     std::int64_t arg_value = 0) noexcept {
    if (!Tracer::instance().enabled()) return;
    active_ = true;
    std::strncpy(name_, name, sizeof(name_) - 1);
    name_[sizeof(name_) - 1] = '\0';
    arg_name_ = arg_name;
    arg_value_ = arg_value;
    begin_ns_ = clock_ns();
  }
  explicit TraceSpan(const std::string& name, const char* arg_name = nullptr,
                     std::int64_t arg_value = 0) noexcept
      : TraceSpan(name.c_str(), arg_name, arg_value) {}

  ~TraceSpan() {
    if (!active_) return;
    const std::uint64_t end = clock_ns();
    Tracer::instance().record(name_, begin_ns_, end - begin_ns_, arg_name_,
                              arg_value_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  char name_[TraceEvent::kNameCapacity];
  const char* arg_name_ = nullptr;
  std::int64_t arg_value_ = 0;
  std::uint64_t begin_ns_ = 0;
  bool active_ = false;
};

}  // namespace mdcp::obs

#if MDCP_ENABLE_TRACING
#define MDCP_TRACE_CONCAT_IMPL_(a, b) a##b
#define MDCP_TRACE_CONCAT_(a, b) MDCP_TRACE_CONCAT_IMPL_(a, b)
/// Traces the enclosing scope. Args: name [, arg_name, integer arg_value].
#define MDCP_TRACE_SPAN(...)                                       \
  ::mdcp::obs::TraceSpan MDCP_TRACE_CONCAT_(mdcp_trace_span_,      \
                                            __LINE__) {            \
    __VA_ARGS__                                                    \
  }
#else
#define MDCP_TRACE_SPAN(...) \
  do {                       \
  } while (false)
#endif
