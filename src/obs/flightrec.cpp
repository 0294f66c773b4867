#include "obs/flightrec.hpp"

#include <unistd.h>

#include <algorithm>

namespace mdcp::obs {

namespace detail {

void FdWriter::byte_(char c) noexcept {
  if (len_ == sizeof(buf_)) flush();
  buf_[len_++] = c;
}

void FdWriter::str(const char* s) noexcept {
  if (s == nullptr) return;
  for (; *s != '\0'; ++s) byte_(*s);
}

void FdWriter::u64(std::uint64_t v) noexcept {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) byte_(digits[--n]);
}

void FdWriter::i64(std::int64_t v) noexcept {
  if (v < 0) {
    byte_('-');
    // Negate via unsigned arithmetic so INT64_MIN does not overflow.
    u64(~static_cast<std::uint64_t>(v) + 1);
  } else {
    u64(static_cast<std::uint64_t>(v));
  }
}

void FdWriter::flush() noexcept {
  std::size_t off = 0;
  while (off < len_) {
    ssize_t w = ::write(fd_, buf_ + off, len_ - off);
    if (w <= 0) break;  // nothing sane to do in a crash path
    off += static_cast<std::size_t>(w);
  }
  len_ = 0;
}

}  // namespace detail

const char* fr_event_name(FrEvent e) noexcept {
  // Static literals: the crash dumper must be able to name events without
  // touching the heap.
  switch (e) {
    case FrEvent::kPhaseEnter: return "phase-enter";
    case FrEvent::kPhaseLeave: return "phase-leave";
    case FrEvent::kIteration: return "iteration";
    case FrEvent::kPrepareBegin: return "prepare-begin";
    case FrEvent::kPrepareEnd: return "prepare-end";
    case FrEvent::kComputeBegin: return "compute-begin";
    case FrEvent::kComputeEnd: return "compute-end";
    case FrEvent::kTileBatch: return "tile-batch";
    case FrEvent::kDegradation: return "degradation";
    case FrEvent::kRecovery: return "recovery";
    case FrEvent::kCancel: return "cancel";
    case FrEvent::kWatchdog: return "watchdog";
    case FrEvent::kStall: return "stall";
  }
  return "unknown";
}

const char* fr_phase_name(FrPhase p) noexcept {
  switch (p) {
    case FrPhase::kNone: return "none";
    case FrPhase::kPrepare: return "prepare";
    case FrPhase::kCompute: return "compute";
    case FrPhase::kSolve: return "solve";
    case FrPhase::kFit: return "fit";
    case FrPhase::kIteration: return "iteration";
    case FrPhase::kParallelFor: return "parallel-for";
    case FrPhase::kShutdown: return "shutdown";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() noexcept {
  // Leaked on purpose: crash handlers may fire during static destruction,
  // and the recorder must outlive every other object in the process.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

std::uint32_t FlightRecorder::thread_slot() noexcept {
  thread_local std::uint32_t slot = UINT32_MAX;
  if (slot == UINT32_MAX) {
    std::uint32_t next = next_slot_.fetch_add(1, std::memory_order_relaxed);
    slot = std::min(next, static_cast<std::uint32_t>(kMaxThreads - 1));
  }
  return slot;
}

void FlightRecorder::record(FrEvent kind, FrPhase phase, std::int64_t a,
                            std::int64_t b) noexcept {
  const std::uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[idx % kRingCapacity];
  slot.seq.store(0, std::memory_order_release);  // mark in-flight
  slot.ts_ns = static_cast<std::uint64_t>(clock_ns());
  slot.tid = thread_slot();
  slot.kind = kind;
  slot.phase = phase;
  slot.a = a;
  slot.b = b;
  slot.seq.store(idx + 1, std::memory_order_release);
}

void FlightRecorder::beat_at(std::uint64_t now_ns, FrPhase phase,
                             std::int64_t detail) noexcept {
  Heart& h = hearts_[thread_slot()];
  h.last_ns.store(now_ns, std::memory_order_relaxed);
  h.phase.store(static_cast<std::uint8_t>(phase), std::memory_order_relaxed);
  h.detail.store(detail, std::memory_order_relaxed);
  h.used.store(1, std::memory_order_relaxed);
  h.epoch.fetch_add(1, std::memory_order_release);
  progress_.fetch_add(1, std::memory_order_relaxed);
}

bool FlightRecorder::read_slot_(std::size_t i, FlightEvent& out) const noexcept {
  const Slot& slot = ring_[i];
  const std::uint64_t seq0 = slot.seq.load(std::memory_order_acquire);
  if (seq0 == 0) return false;  // empty or mid-write
  out.seq = seq0;
  out.ts_ns = slot.ts_ns;
  out.tid = slot.tid;
  out.kind = slot.kind;
  out.phase = slot.phase;
  out.a = slot.a;
  out.b = slot.b;
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t seq1 = slot.seq.load(std::memory_order_relaxed);
  if (seq1 != seq0) return false;  // torn: overwritten while reading
  if (static_cast<std::uint8_t>(out.kind) >= kFrEventCount) return false;
  if (static_cast<std::uint8_t>(out.phase) >= kFrPhaseCount) return false;
  return true;
}

std::vector<FlightEvent> FlightRecorder::snapshot_events() const {
  std::vector<FlightEvent> out;
  out.reserve(kRingCapacity);
  FlightEvent ev;
  for (std::size_t i = 0; i < kRingCapacity; ++i) {
    if (read_slot_(i, ev)) out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

std::vector<HeartbeatSnapshot> FlightRecorder::snapshot_heartbeats() const {
  std::vector<HeartbeatSnapshot> out;
  for (int t = 0; t < kMaxThreads; ++t) {
    const Heart& h = hearts_[t];
    if (h.used.load(std::memory_order_relaxed) == 0) continue;
    HeartbeatSnapshot s;
    s.tid = static_cast<std::uint32_t>(t);
    s.epoch = h.epoch.load(std::memory_order_acquire);
    s.last_ns = h.last_ns.load(std::memory_order_relaxed);
    s.phase = static_cast<FrPhase>(h.phase.load(std::memory_order_relaxed));
    s.detail = h.detail.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

std::size_t FlightRecorder::dump(int fd) const noexcept {
  detail::FdWriter w(fd);
  const std::uint64_t now = static_cast<std::uint64_t>(clock_ns());

  for (int t = 0; t < kMaxThreads; ++t) {
    const Heart& h = hearts_[t];
    if (h.used.load(std::memory_order_relaxed) == 0) continue;
    const std::uint64_t last = h.last_ns.load(std::memory_order_relaxed);
    w.str("{\"type\":\"heartbeat\",\"tid\":");
    w.u64(static_cast<std::uint64_t>(t));
    w.str(",\"epoch\":");
    w.u64(h.epoch.load(std::memory_order_acquire));
    w.str(",\"last_ns\":");
    w.u64(last);
    w.str(",\"age_ns\":");
    w.u64(now > last ? now - last : 0);
    w.str(",\"phase\":\"");
    w.str(fr_phase_name(
        static_cast<FrPhase>(h.phase.load(std::memory_order_relaxed))));
    w.str("\",\"detail\":");
    w.i64(h.detail.load(std::memory_order_relaxed));
    w.str("}\n");
  }

  // Emit events oldest-first. Walking the ring from the current head keeps
  // the output ordered without sorting (an allocation-free requirement);
  // per-slot sequence numbers let the postmortem reader verify order anyway.
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t start =
      head >= kRingCapacity ? static_cast<std::size_t>(head % kRingCapacity)
                            : 0;
  std::size_t torn = 0;
  FlightEvent ev;
  for (std::size_t k = 0; k < kRingCapacity; ++k) {
    const std::size_t i = (start + k) % kRingCapacity;
    if (!read_slot_(i, ev)) {
      const Slot& slot = ring_[i];
      if (slot.seq.load(std::memory_order_relaxed) != 0 ||
          (head >= kRingCapacity || i < head)) {
        ++torn;  // a slot that should have held data but was mid-write
      }
      continue;
    }
    w.str("{\"type\":\"event\",\"seq\":");
    w.u64(ev.seq);
    w.str(",\"ts_ns\":");
    w.u64(ev.ts_ns);
    w.str(",\"tid\":");
    w.u64(ev.tid);
    w.str(",\"kind\":\"");
    w.str(fr_event_name(ev.kind));
    w.str("\",\"phase\":\"");
    w.str(fr_phase_name(ev.phase));
    w.str("\",\"a\":");
    w.i64(ev.a);
    w.str(",\"b\":");
    w.i64(ev.b);
    w.str("}\n");
  }
  w.flush();
  return torn;
}

void FlightRecorder::reset() noexcept {
  for (std::size_t i = 0; i < kRingCapacity; ++i) {
    ring_[i].seq.store(0, std::memory_order_relaxed);
  }
  for (int t = 0; t < kMaxThreads; ++t) {
    hearts_[t].epoch.store(0, std::memory_order_relaxed);
    hearts_[t].last_ns.store(0, std::memory_order_relaxed);
    hearts_[t].phase.store(0, std::memory_order_relaxed);
    hearts_[t].detail.store(0, std::memory_order_relaxed);
    hearts_[t].used.store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
  progress_.store(0, std::memory_order_relaxed);
}

}  // namespace mdcp::obs
