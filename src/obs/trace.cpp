#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "obs/json.hpp"
#include "util/parallel.hpp"

namespace mdcp::obs {

TraceRing::TraceRing(std::size_t capacity, std::uint32_t tid)
    : ring_(std::max<std::size_t>(capacity, 1)), tid_(tid) {}

std::vector<TraceEvent> TraceRing::events() const {
  std::vector<TraceEvent> out;
  const std::uint64_t n = kept();
  out.reserve(static_cast<std::size_t>(n));
  // Oldest retained event sits at pushed_ - n (mod capacity).
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(
        ring_[static_cast<std::size_t>((pushed_ - n + i) % ring_.size())]);
  }
  return out;
}

void TraceRing::set_capacity(std::size_t capacity) {
  ring_.assign(std::max<std::size_t>(capacity, 1), TraceEvent{});
  pushed_ = 0;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

TraceRing& Tracer::local_ring_() {
  thread_local TraceRing* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<TraceRing>(
        ring_capacity_, static_cast<std::uint32_t>(rings_.size())));
    ring = rings_.back().get();
    // Default track label: the first thread to record is almost always the
    // driver; OpenMP workers are labelled by their team index so Perfetto
    // shows "omp-3" instead of a bare thread id.
    if (ring->tid() == 0) {
      ring->set_name("main");
    } else if (team_size() > 1) {
      ring->set_name("omp-" + std::to_string(thread_id()));
    }
  }
  return *ring;
}

void Tracer::record(const char* name, std::uint64_t ts_ns,
                    std::uint64_t dur_ns, const char* arg_name,
                    std::int64_t arg_value) noexcept {
  TraceEvent ev{};
  std::strncpy(ev.name, name, sizeof(ev.name) - 1);
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  TraceRing& ring = local_ring_();
  ev.tid = ring.tid();
  ring.push(ev);
}

void Tracer::set_process_name(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  process_name_ = std::move(name);
}

std::string Tracer::process_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return process_name_;
}

void Tracer::set_current_thread_name(std::string name) {
  local_ring_().set_name(std::move(name));
}

void Tracer::set_ring_capacity(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = std::max<std::size_t>(events_per_thread, 1);
  for (auto& ring : rings_) ring->set_capacity(ring_capacity_);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) ring->clear();
}

std::uint64_t Tracer::retained_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) n += ring->kept();
  return n;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) n += ring->dropped();
  return n;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  for (const auto& ring : rings_) {
    auto evs = ring->events();
    out.insert(out.end(), evs.begin(), evs.end());
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
  std::vector<std::string> thread_names;
  std::string process_name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_name = process_name_;
    for (const auto& ring : rings_) {
      dropped += ring->dropped();
      thread_names.push_back(ring->name());
      auto evs = ring->events();
      events.insert(events.end(), evs.begin(), evs.end());
    }
  }
  // Rebase to the earliest event so Perfetto's timeline starts near zero.
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const auto& ev : events) base = std::min(base, ev.ts_ns);
  if (events.empty()) base = 0;

  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  w.begin_object()
      .kv("ph", "M")
      .kv("name", "process_name")
      .kv("pid", 1)
      .kv("tid", 0)
      .key("args")
      .begin_object()
      .kv("name", process_name)
      .end_object()
      .end_object();
  for (std::size_t t = 0; t < thread_names.size(); ++t) {
    w.begin_object()
        .kv("ph", "M")
        .kv("name", "thread_name")
        .kv("pid", 1)
        .kv("tid", static_cast<std::uint64_t>(t))
        .key("args")
        .begin_object()
        .kv("name", thread_names[t].empty()
                        ? "mdcp-thread-" + std::to_string(t)
                        : thread_names[t])
        .end_object()
        .end_object();
  }
  for (const auto& ev : events) {
    w.begin_object()
        .kv("name", std::string_view(ev.name))
        .kv("cat", "mdcp")
        .kv("ph", "X")
        .kv("ts", static_cast<double>(ev.ts_ns - base) * 1e-3)   // microseconds
        .kv("dur", static_cast<double>(ev.dur_ns) * 1e-3)
        .kv("pid", 1)
        .kv("tid", static_cast<std::uint64_t>(ev.tid));
    if (ev.arg_name != nullptr)
      w.key("args").begin_object().kv(ev.arg_name, ev.arg_value).end_object();
    w.end_object();
  }
  w.end_array();
  w.key("otherData")
      .begin_object()
      .kv("dropped_events", dropped)
      .kv("clock", "steady_ns")
      .end_object();
  w.kv("displayTimeUnit", "ms").end_object();
  return w.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os.good()) return false;
  os << to_chrome_json() << '\n';
  return os.good();
}

}  // namespace mdcp::obs
