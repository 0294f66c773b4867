// Always-on flight recorder: the liveness half of observability.
//
// The span tracer, metrics, and run reports only tell the story of runs that
// finish. The flight recorder exists for the runs that don't: it keeps a
// fixed-size, lock-free ring of compact progress events (phase enter/leave,
// CP-ALS iterations, engine prepare/compute boundaries, scheduler tile
// batches, degradation/recovery events) plus a per-thread *heartbeat* table
// (monotonic epoch, last-beat timestamp, current phase). Both are recorded
// unconditionally — even when the build compiles tracing out — because their
// whole point is to still be there when the process is wedged or dying.
//
// Three consumers:
//   * the Watchdog (obs/watchdog.hpp) polls progress() and fires when no
//     heartbeat advances within its deadline;
//   * crash dumps serialize the ring + heartbeat table through dump(), which
//     is async-signal-safe (pre-sized stack buffers, integer-only
//     formatting, write(2) only — no malloc, no locks);
//   * `mdcp_cli postmortem` renders a dump into per-thread timelines and a
//     likely-stalled-phase verdict.
//
// Concurrency: record() claims a slot with one fetch_add and publishes it
// with a per-slot seqlock (seq=0 while the payload is being written, seq =
// global sequence when complete), so concurrent writers never block and
// readers — including a signal handler interrupting a half-written slot —
// can detect and skip torn entries. beat() is a handful of relaxed stores
// plus one shared relaxed fetch_add; it is cheap enough for parallel-for
// chunk loops.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/clock.hpp"

namespace mdcp::obs {

/// Progress-event kinds recorded into the ring.
enum class FrEvent : std::uint8_t {
  kPhaseEnter = 0,
  kPhaseLeave = 1,
  kIteration = 2,     ///< CP-ALS iteration start (a = iteration)
  kPrepareBegin = 3,  ///< engine symbolic phase (NVI wrapper)
  kPrepareEnd = 4,
  kComputeBegin = 5,  ///< engine numeric phase (a = mode)
  kComputeEnd = 6,
  kTileBatch = 7,     ///< scheduled parallel launch (a = tiles, b = schedule)
  kDegradation = 8,   ///< budget-driven engine fallback
  kRecovery = 9,      ///< CP-ALS numerical recovery (a = mode)
  kCancel = 10,       ///< cooperative cancellation observed
  kWatchdog = 11,     ///< watchdog fired
  kStall = 12,        ///< injected stall fault (a = milliseconds)
};
inline constexpr int kFrEventCount = 13;
const char* fr_event_name(FrEvent e) noexcept;

/// Coarse phase a thread publishes with its heartbeat. Compact by design —
/// the crash dump must explain "where was every thread" with one byte.
enum class FrPhase : std::uint8_t {
  kNone = 0,
  kPrepare = 1,      ///< engine symbolic phase (detail = rank hint)
  kCompute = 2,      ///< engine numeric phase (detail = mode)
  kSolve = 3,        ///< CP-ALS dense update steps (detail = mode)
  kFit = 4,          ///< CP-ALS fit evaluation (detail = iteration)
  kIteration = 5,    ///< CP-ALS sweep bookkeeping (detail = iteration)
  kParallelFor = 6,  ///< inside a parallel_for chunk loop
  kShutdown = 7,     ///< run teardown / reporting
};
inline constexpr int kFrPhaseCount = 8;
const char* fr_phase_name(FrPhase p) noexcept;

/// One decoded ring entry (snapshot form).
struct FlightEvent {
  std::uint64_t seq = 0;  ///< global order, 1-based
  std::uint64_t ts_ns = 0;
  std::uint32_t tid = 0;  ///< flight-recorder thread slot
  FrEvent kind = FrEvent::kPhaseEnter;
  FrPhase phase = FrPhase::kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// One thread's heartbeat state (snapshot form).
struct HeartbeatSnapshot {
  std::uint32_t tid = 0;
  std::uint64_t epoch = 0;    ///< beats so far (monotonic)
  std::uint64_t last_ns = 0;  ///< obs::clock_ns of the latest beat
  FrPhase phase = FrPhase::kNone;
  std::int64_t detail = 0;  ///< phase-specific (mode, iteration, ...)
};

class FlightRecorder {
 public:
  /// Ring capacity in events (fixed at compile time: the recorder must never
  /// allocate after construction). ~48 B/event.
  static constexpr std::size_t kRingCapacity = 4096;
  /// Upper bound on distinct heartbeat threads (matches Workspace's bound;
  /// overflowing threads share the last slot).
  static constexpr int kMaxThreads = 256;

  /// The process-wide recorder. Deliberately leaked so crash handlers may
  /// run during process teardown without touching a destroyed object.
  static FlightRecorder& instance() noexcept;

  /// Records one event. Lock-free and safe from any thread, including
  /// inside OpenMP regions.
  void record(FrEvent kind, FrPhase phase, std::int64_t a = 0,
              std::int64_t b = 0) noexcept;

  /// Publishes a heartbeat for the calling thread: bumps its epoch, stamps
  /// the clock, and sets its current phase. The watchdog treats any beat
  /// from any thread as forward progress.
  void beat(FrPhase phase, std::int64_t detail = 0) noexcept {
    beat_at(clock_ns(), phase, detail);
  }
  /// beat() stamped with a clock_ns() reading the caller already took.
  void beat_at(std::uint64_t now_ns, FrPhase phase,
               std::int64_t detail) noexcept;

  /// The calling thread's heartbeat slot (assigned on first use).
  std::uint32_t thread_slot() noexcept;

  /// Total events ever recorded (>= retained once the ring wraps).
  std::uint64_t events_recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  /// Monotonic progress signal: advances on every beat() from any thread.
  std::uint64_t progress() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Oldest-first copy of the retained ring (torn/in-flight slots skipped).
  /// Normal-context only (allocates the result vector).
  std::vector<FlightEvent> snapshot_events() const;

  /// Heartbeat table snapshot (threads that ever beat). Normal-context only.
  std::vector<HeartbeatSnapshot> snapshot_heartbeats() const;

  /// Writes the heartbeat table and the retained events to `fd` as JSONL
  /// ("heartbeat" / "event" lines of the mdcp-crash-dump/1 schema).
  /// Async-signal-safe: stack buffers, integer-only formatting, write(2).
  /// Returns the number of torn slots skipped.
  std::size_t dump(int fd) const noexcept;

  /// Zeroes the ring and every heartbeat epoch (thread-slot assignments are
  /// kept — they are thread_local). Test hook; not thread-safe against
  /// concurrent writers.
  void reset() noexcept;

 private:
  FlightRecorder() = default;

  // Per-slot seqlock: seq == 0 means empty or in-flight; seq == N means the
  // payload is the N-th event (1-based). Writers store 0, fill, then store N
  // with release; readers double-check seq around the payload read.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::uint64_t ts_ns = 0;
    std::uint32_t tid = 0;
    FrEvent kind = FrEvent::kPhaseEnter;
    FrPhase phase = FrPhase::kNone;
    std::int64_t a = 0;
    std::int64_t b = 0;
  };

  struct Heart {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> last_ns{0};
    std::atomic<std::uint8_t> phase{0};
    std::atomic<std::int64_t> detail{0};
    std::atomic<std::uint8_t> used{0};
  };

  /// Reads slot `i` with the seqlock double-check; false = torn or empty.
  bool read_slot_(std::size_t i, FlightEvent& out) const noexcept;

  Slot ring_[kRingCapacity];
  Heart hearts_[kMaxThreads];
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint32_t> next_slot_{0};
};

/// Terse helpers for instrumentation sites.
inline void fr_record(FrEvent kind, FrPhase phase, std::int64_t a = 0,
                      std::int64_t b = 0) noexcept {
  FlightRecorder::instance().record(kind, phase, a, b);
}
inline void fr_beat(FrPhase phase, std::int64_t detail = 0) noexcept {
  FlightRecorder::instance().beat(phase, detail);
}

namespace detail {

/// Buffered fd writer for async-signal-safe JSON lines: fixed stack-owned
/// buffer, write(2) on flush, integer/decimal formatting only. Used by the
/// flight recorder and the crash-dump writer in obs/watchdog.cpp.
class FdWriter {
 public:
  explicit FdWriter(int fd) noexcept : fd_(fd) {}
  ~FdWriter() { flush(); }

  void str(const char* s) noexcept;  ///< raw (caller guarantees JSON-safe)
  void u64(std::uint64_t v) noexcept;
  void i64(std::int64_t v) noexcept;
  void flush() noexcept;

 private:
  void byte_(char c) noexcept;

  int fd_;
  char buf_[512];
  std::size_t len_ = 0;
};

}  // namespace detail

}  // namespace mdcp::obs
