#include "obs/watchdog.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/clock.hpp"
#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace mdcp::obs {

namespace {

// ---------------------------------------------------------------------------
// Crash-handler globals. Everything the signal handler touches lives here,
// is constant-initialized (no dynamic-init ordering), and is written only
// from normal context (install/attach) — the handler only reads it, plus the
// one-shot flags. No heap pointers: the handler path must never free or
// allocate.
// ---------------------------------------------------------------------------

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};
constexpr int kCrashSignalCount = 4;
constexpr std::size_t kMaxCrashCounters = 128;
constexpr std::size_t kCounterNameCap = 96;

struct CrashGlobals {
  std::atomic<bool> installed{false};
  std::atomic<bool> dumped{false};      ///< some path already wrote a dump
  std::atomic<int> in_handler{0};       ///< re-entrancy / multi-signal guard
  std::atomic<int> dump_fd{-1};         ///< pre-opened crash-dump file
  char dump_path[512] = {};
  struct sigaction old_actions[kCrashSignalCount] = {};

  // Pre-formatted provenance fragment (no leading/trailing comma/braces),
  // e.g. `"host":"ci-3","compiler":"gcc 13.2.0","build_type":"Release"`.
  std::atomic<bool> provenance_ready{false};
  char provenance[768] = {};

  // In-flight run report to finalize on crash.
  std::atomic<int> report_fd{-1};  ///< O_APPEND fd onto the `.tmp` file
  char report_tmp[512] = {};
  char report_final[512] = {};
  char aborted_line[1024] = {};
  std::size_t aborted_line_len = 0;

  // Counter snapshot taken in normal context so the handler can report
  // metric values without the registry mutex. Counter references are stable
  // for the process lifetime (metrics.hpp contract).
  std::atomic<int> counter_count{0};
  struct NamedCounter {
    char name[kCounterNameCap];
    const Counter* counter;
  } counters[kMaxCrashCounters] = {};

  std::atomic<const KernelStats*> kernel_stats{nullptr};
};

CrashGlobals g_crash;

void copy_str(char* dst, std::size_t cap, const std::string& src) noexcept {
  const std::size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Builds the provenance fragment once (normal context: allocates freely,
/// then memcpys into the static buffer the handler reads).
void ensure_provenance() {
  if (g_crash.provenance_ready.load(std::memory_order_acquire)) return;
  const BuildInfo& info = BuildInfo::current();
  std::string frag = "\"host\":\"";
  json_escape(info.host, frag);
  frag += "\",\"compiler\":\"";
  json_escape(info.compiler, frag);
  frag += "\",\"build_type\":\"";
  json_escape(info.build_type, frag);
  frag += "\",\"threads\":" + std::to_string(info.hardware_threads);
  copy_str(g_crash.provenance, sizeof(g_crash.provenance), frag);
  g_crash.provenance_ready.store(true, std::memory_order_release);
}

/// Re-snapshots counter names + addresses (normal context: takes the
/// registry mutex via counter()).
void refresh_counter_snapshot() {
  MetricsRegistry& reg = MetricsRegistry::instance();
  const auto named = reg.counters();
  int n = 0;
  for (const auto& [name, value] : named) {
    (void)value;
    if (n == static_cast<int>(kMaxCrashCounters)) break;
    copy_str(g_crash.counters[n].name, kCounterNameCap, name);
    g_crash.counters[n].counter = &reg.counter(name);
    ++n;
  }
  g_crash.counter_count.store(n, std::memory_order_release);
}

/// Appends the pre-formatted aborted summary record to the report `.tmp`
/// and promotes it to its final name. Async-signal-safe (write/fsync/
/// rename/close only). One-shot: the fd is claimed with an exchange.
void finalize_report_in_handler() noexcept {
  const int rfd = g_crash.report_fd.exchange(-1, std::memory_order_acq_rel);
  if (rfd < 0) return;
  std::size_t off = 0;
  while (off < g_crash.aborted_line_len) {
    const ssize_t w =
        ::write(rfd, g_crash.aborted_line + off, g_crash.aborted_line_len - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::fsync(rfd);
  ::close(rfd);
  ::rename(g_crash.report_tmp, g_crash.report_final);
}

extern "C" void mdcp_crash_signal_handler(int sig) {
  // First signal in wins; a second (or a fault inside the handler itself)
  // falls through straight to the re-raise.
  if (g_crash.in_handler.exchange(1, std::memory_order_acq_rel) == 0) {
    const int fd = g_crash.dump_fd.load(std::memory_order_acquire);
    if (fd >= 0 && !g_crash.dumped.exchange(true, std::memory_order_acq_rel)) {
      const std::size_t torn = write_crash_dump_core(fd, "signal", sig);
      write_crash_dump_end(fd, torn);
      ::fsync(fd);
    }
    finalize_report_in_handler();
  }
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (exit status, core dumps, wait status intact).
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dump writing.
// ---------------------------------------------------------------------------

std::size_t write_crash_dump_core(int fd, const char* cause,
                                  int sig) noexcept {
  {
    detail::FdWriter w(fd);
    w.str("{\"type\":\"crash\",\"schema\":\"");
    w.str(kCrashDumpSchema);
    w.str("\",\"cause\":\"");
    w.str(cause);
    w.str("\",\"signal\":");
    w.i64(sig);
    w.str(",\"now_ns\":");
    w.u64(clock_ns());
    w.str(",\"pid\":");
    w.i64(static_cast<std::int64_t>(::getpid()));
    if (g_crash.provenance_ready.load(std::memory_order_acquire)) {
      w.str(",");
      w.str(g_crash.provenance);
    }
    w.str("}\n");
  }  // flush before the recorder writes with its own buffer

  const std::size_t torn = FlightRecorder::instance().dump(fd);

  detail::FdWriter w(fd);
  if (const KernelStats* s =
          g_crash.kernel_stats.load(std::memory_order_acquire)) {
    w.str("{\"type\":\"kernel_stats\",\"symbolic_us\":");
    w.i64(static_cast<std::int64_t>(s->symbolic_seconds * 1e6));
    w.str(",\"numeric_us\":");
    w.i64(static_cast<std::int64_t>(s->numeric_seconds * 1e6));
    w.str(",\"prepare_calls\":");
    w.u64(s->prepare_calls);
    w.str(",\"compute_calls\":");
    w.u64(s->compute_calls);
    w.str(",\"flops\":");
    w.u64(s->flops);
    w.str(",\"peak_scratch_bytes\":");
    w.u64(s->peak_scratch_bytes);
    w.str(",\"degradations\":");
    w.u64(s->degradations);
    w.str(",\"last_tiles\":");
    w.i64(s->last_tiles);
    w.str(",\"last_tile\":");
    w.u64(s->last_tile);
    // Static strings by the KernelStats contract — safe in a handler.
    w.str(",\"last_sched_reason\":\"");
    w.str(s->last_sched_reason);
    w.str("\",\"last_degradation_reason\":\"");
    w.str(s->last_degradation_reason);
    w.str("\",\"plan_source\":\"");
    w.str(s->plan_source);
    w.str("\"}\n");
  }

  const int n = g_crash.counter_count.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    w.str("{\"type\":\"counter\",\"name\":\"");
    w.str(g_crash.counters[i].name);
    w.str("\",\"value\":");
    w.u64(g_crash.counters[i].counter->value());
    w.str("}\n");
  }
  w.flush();
  return torn;
}

void write_crash_dump_end(int fd, std::size_t torn) noexcept {
  detail::FdWriter w(fd);
  w.str("{\"type\":\"end\",\"events_recorded\":");
  w.u64(FlightRecorder::instance().events_recorded());
  w.str(",\"torn\":");
  w.u64(torn);
  w.str("}\n");
}

std::string write_crash_dump_file(const std::string& dir, const char* cause,
                                  int sig) {
  ensure_provenance();
  refresh_counter_snapshot();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort
  const std::string path = dir + "/crash-" + std::to_string(clock_ns()) +
                           "-" + std::to_string(::getpid()) + ".json";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return "";
  const std::size_t torn = write_crash_dump_core(fd, cause, sig);
  // Full registry snapshot (mutex-taking — normal context only).
  const std::string metrics =
      "{\"type\":\"metrics\",\"data\":" + MetricsRegistry::instance().to_json() +
      "}\n";
  std::size_t off = 0;
  while (off < metrics.size()) {
    const ssize_t w = ::write(fd, metrics.data() + off, metrics.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  write_crash_dump_end(fd, torn);
  ::close(fd);
  return path;
}

// ---------------------------------------------------------------------------
// Handler registration.
// ---------------------------------------------------------------------------

bool crash_handlers_install(const std::string& dir) {
  ensure_provenance();
  refresh_counter_snapshot();

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/crash-" + std::to_string(clock_ns()) +
                           "-" + std::to_string(::getpid()) + ".json";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;

  // Replace any previously pre-opened (never-written) dump.
  const int old_fd = g_crash.dump_fd.exchange(fd, std::memory_order_acq_rel);
  if (old_fd >= 0 && !g_crash.dumped.load(std::memory_order_acquire)) {
    ::close(old_fd);
    ::unlink(g_crash.dump_path);
  }
  copy_str(g_crash.dump_path, sizeof(g_crash.dump_path), path);

  if (!g_crash.installed.exchange(true, std::memory_order_acq_rel)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = mdcp_crash_signal_handler;
    sigemptyset(&sa.sa_mask);
    for (int i = 0; i < kCrashSignalCount; ++i) {
      ::sigaction(kCrashSignals[i], &sa, &g_crash.old_actions[i]);
    }
  }
  return true;
}

void crash_handlers_uninstall() noexcept {
  if (g_crash.installed.exchange(false, std::memory_order_acq_rel)) {
    for (int i = 0; i < kCrashSignalCount; ++i) {
      ::sigaction(kCrashSignals[i], &g_crash.old_actions[i], nullptr);
    }
  }
  const int fd = g_crash.dump_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::close(fd);
    if (!g_crash.dumped.load(std::memory_order_acquire)) {
      ::unlink(g_crash.dump_path);  // clean exit: no empty dump left behind
    }
  }
  crash_detach_report();
}

std::string crash_dump_path() {
  return g_crash.dump_fd.load(std::memory_order_acquire) >= 0 ||
                 g_crash.dumped.load(std::memory_order_acquire)
             ? std::string(g_crash.dump_path)
             : std::string();
}

bool crash_dump_written() noexcept {
  return g_crash.dumped.load(std::memory_order_acquire);
}

void crash_set_kernel_stats(const KernelStats* stats) noexcept {
  g_crash.kernel_stats.store(stats, std::memory_order_release);
}

void crash_attach_report(const std::string& tmp_path,
                         const std::string& final_path,
                         const std::string& aborted_summary_line) {
  crash_detach_report();
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return;
  copy_str(g_crash.report_tmp, sizeof(g_crash.report_tmp), tmp_path);
  copy_str(g_crash.report_final, sizeof(g_crash.report_final), final_path);
  std::string line = aborted_summary_line;
  if (line.empty() || line.back() != '\n') line += '\n';
  copy_str(g_crash.aborted_line, sizeof(g_crash.aborted_line), line);
  g_crash.aborted_line_len =
      std::min(line.size(), sizeof(g_crash.aborted_line) - 1);
  g_crash.report_fd.store(fd, std::memory_order_release);
}

void crash_detach_report() noexcept {
  const int fd = g_crash.report_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

const char* watchdog_policy_name(WatchdogPolicy p) noexcept {
  switch (p) {
    case WatchdogPolicy::kReport: return "report";
    case WatchdogPolicy::kCancel: return "cancel";
    case WatchdogPolicy::kAbort: return "abort";
  }
  return "unknown";
}

bool watchdog_policy_from_name(const std::string& name, WatchdogPolicy& out) {
  if (name == "report") {
    out = WatchdogPolicy::kReport;
  } else if (name == "cancel") {
    out = WatchdogPolicy::kCancel;
  } else if (name == "abort") {
    out = WatchdogPolicy::kAbort;
  } else {
    return false;
  }
  return true;
}

Watchdog::Watchdog(WatchdogOptions options) : options_(std::move(options)) {
  if (options_.deadline_seconds > 0) {
    // Snapshot provenance/counters now so the fire path needs no lazy init.
    ensure_provenance();
    thread_ = std::thread([this] { run_(); });
  }
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::run_() {
  FlightRecorder& fr = FlightRecorder::instance();
  std::uint64_t last_progress = fr.progress();
  std::uint64_t last_change_ns = clock_ns();
  const auto deadline_ns =
      static_cast<std::uint64_t>(options_.deadline_seconds * 1e9);
  const double poll_s =
      options_.poll_seconds > 0
          ? options_.poll_seconds
          : std::clamp(options_.deadline_seconds / 4.0, 0.01, 1.0);

  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lk, std::chrono::duration<double>(poll_s),
                 [this] { return stop_requested_; });
    if (stop_requested_) return;
    const std::uint64_t p = fr.progress();
    const std::uint64_t now = clock_ns();
    if (p != last_progress) {
      last_progress = p;
      last_change_ns = now;
      continue;
    }
    if (!watchdog_due(last_change_ns, now, deadline_ns)) continue;

    // Fired: dump outside the lock (file I/O + registry mutex), once.
    lk.unlock();
    const std::uint64_t quiet_ms = (now - last_change_ns) / 1000000;
    fr.record(FrEvent::kWatchdog, FrPhase::kNone,
              static_cast<std::int64_t>(quiet_ms));
    static Counter& fired_counter =
        MetricsRegistry::instance().counter("watchdog.fired");
    fired_counter.add();
    dump_path_ =
        write_crash_dump_file(options_.dump_dir.empty() ? "." : options_.dump_dir,
                              "watchdog", 0);
    fired_.store(true, std::memory_order_release);
    switch (options_.policy) {
      case WatchdogPolicy::kReport:
        break;
      case WatchdogPolicy::kCancel:
        if (options_.cancel != nullptr) {
          options_.cancel->store(true, std::memory_order_release);
        }
        break;
      case WatchdogPolicy::kAbort:
        // The SIGABRT handler (if installed) skips its own dump — ours is
        // already on disk — but still finalizes the run report.
        g_crash.dumped.store(true, std::memory_order_release);
        std::abort();
    }
    return;  // one-shot
  }
}

// ---------------------------------------------------------------------------
// CancelTimer.
// ---------------------------------------------------------------------------

CancelTimer::CancelTimer(double seconds, std::atomic<bool>* flag)
    : flag_(flag) {
  if (seconds > 0 && flag_ != nullptr) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lk(mu_);
      if (cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                       [this] { return stop_requested_; })) {
        return;  // cancelled the timer itself
      }
      flag_->store(true, std::memory_order_release);
    });
  }
}

CancelTimer::~CancelTimer() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

// ---------------------------------------------------------------------------
// Postmortem analysis.
// ---------------------------------------------------------------------------

bool analyze_crash_dump(const std::string& path, CrashDumpAnalysis& out,
                        std::string* error) {
  out = CrashDumpAnalysis{};
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }

  bool has_header = false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JsonValue v;
    if (!json_parse(line, v, nullptr)) {
      // A crash can truncate the final line mid-write; count, keep going.
      ++out.truncated_lines;
      continue;
    }
    const JsonValue* type = v.find("type", JsonValue::Kind::kString);
    if (type == nullptr) {
      ++out.truncated_lines;
      continue;
    }
    const std::string& t = type->as_string();
    if (t == "crash") {
      has_header = true;
      if (const auto* c = v.find("cause", JsonValue::Kind::kString)) {
        out.cause = c->as_string();
      }
      if (const auto* s = v.find("signal", JsonValue::Kind::kNumber)) {
        out.signal = static_cast<int>(s->as_number());
      }
      if (const auto* n = v.find("now_ns", JsonValue::Kind::kNumber)) {
        out.now_ns = static_cast<std::uint64_t>(n->as_number());
      }
      if (const auto* p = v.find("pid", JsonValue::Kind::kNumber)) {
        out.pid = static_cast<std::int64_t>(p->as_number());
      }
      if (const auto* h = v.find("host", JsonValue::Kind::kString)) {
        out.host = h->as_string();
      }
    } else if (t == "heartbeat") {
      CrashThreadState ts;
      if (const auto* f = v.find("tid", JsonValue::Kind::kNumber)) {
        ts.tid = static_cast<std::uint32_t>(f->as_number());
      }
      if (const auto* f = v.find("epoch", JsonValue::Kind::kNumber)) {
        ts.epoch = static_cast<std::uint64_t>(f->as_number());
      }
      if (const auto* f = v.find("last_ns", JsonValue::Kind::kNumber)) {
        ts.last_ns = static_cast<std::uint64_t>(f->as_number());
      }
      if (const auto* f = v.find("age_ns", JsonValue::Kind::kNumber)) {
        ts.age_ns = static_cast<std::uint64_t>(f->as_number());
      }
      if (const auto* f = v.find("phase", JsonValue::Kind::kString)) {
        ts.phase = f->as_string();
      }
      if (const auto* f = v.find("detail", JsonValue::Kind::kNumber)) {
        ts.detail = static_cast<std::int64_t>(f->as_number());
      }
      out.threads.push_back(std::move(ts));
    } else if (t == "event") {
      CrashEvent ev;
      if (const auto* f = v.find("seq", JsonValue::Kind::kNumber)) {
        ev.seq = static_cast<std::uint64_t>(f->as_number());
      }
      if (const auto* f = v.find("ts_ns", JsonValue::Kind::kNumber)) {
        ev.ts_ns = static_cast<std::uint64_t>(f->as_number());
      }
      if (const auto* f = v.find("tid", JsonValue::Kind::kNumber)) {
        ev.tid = static_cast<std::uint32_t>(f->as_number());
      }
      if (const auto* f = v.find("kind", JsonValue::Kind::kString)) {
        ev.kind = f->as_string();
      }
      if (const auto* f = v.find("phase", JsonValue::Kind::kString)) {
        ev.phase = f->as_string();
      }
      if (const auto* f = v.find("a", JsonValue::Kind::kNumber)) {
        ev.a = static_cast<std::int64_t>(f->as_number());
      }
      if (const auto* f = v.find("b", JsonValue::Kind::kNumber)) {
        ev.b = static_cast<std::int64_t>(f->as_number());
      }
      out.events.push_back(std::move(ev));
    } else if (t == "kernel_stats") {
      out.has_kernel_stats = true;
      if (const auto* f = v.find("compute_calls", JsonValue::Kind::kNumber)) {
        out.compute_calls = static_cast<std::uint64_t>(f->as_number());
      }
      if (const auto* f = v.find("degradations", JsonValue::Kind::kNumber)) {
        out.degradations = static_cast<std::uint64_t>(f->as_number());
      }
    } else if (t == "counter") {
      const auto* name = v.find("name", JsonValue::Kind::kString);
      const auto* value = v.find("value", JsonValue::Kind::kNumber);
      if (name != nullptr && value != nullptr) {
        out.counters.emplace_back(
            name->as_string(), static_cast<std::uint64_t>(value->as_number()));
      }
    } else if (t == "end") {
      out.complete = true;
    }
    // "metrics" and unknown types: tolerated, schema may grow.
  }

  if (!has_header) {
    if (error != nullptr) {
      *error = path + ": no mdcp-crash-dump crash header line";
    }
    return false;
  }

  std::sort(out.threads.begin(), out.threads.end(),
            [](const CrashThreadState& x, const CrashThreadState& y) {
              return x.tid < y.tid;
            });
  std::sort(out.events.begin(), out.events.end(),
            [](const CrashEvent& x, const CrashEvent& y) {
              return x.seq < y.seq;
            });

  // Verdict: the run went quiet while the *most recently active* thread was
  // in its published phase — idle threads carry stale (older) heartbeats, so
  // the minimum age points at the thread that stalled or crashed.
  const CrashThreadState* freshest = nullptr;
  for (const CrashThreadState& ts : out.threads) {
    if (freshest == nullptr || ts.age_ns < freshest->age_ns) freshest = &ts;
  }
  if (freshest != nullptr) {
    out.has_verdict = true;
    out.verdict_tid = freshest->tid;
    out.verdict_phase = freshest->phase;
    out.verdict_detail = freshest->detail;
    out.verdict_age_ns = freshest->age_ns;
  }
  return true;
}

}  // namespace mdcp::obs
