// Stall watchdog and crash forensics on top of the flight recorder.
//
// Three layers, all feeding the same `mdcp-crash-dump/1` JSONL format:
//
//   * Watchdog — an opt-in monitor thread that polls
//     FlightRecorder::progress() and fires when no heartbeat (from any
//     thread) advances within its deadline. On firing it writes a
//     `crash-<ns>-<pid>.json` dump (flight recorder + metrics snapshot +
//     the registered KernelStats) and escalates per policy: report (keep
//     running), cancel (set the cooperative cancel flag), or abort.
//
//   * Crash handlers — process-wide SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers
//     that write the same dump through an fd pre-opened at install time,
//     then finalize the in-flight JSONL run report with a pre-formatted
//     `aborted` summary record (append + atomic rename), so
//     history::ingest_dir counts the dead run instead of skipping a `.tmp`
//     orphan. The handler path is async-signal-safe: no malloc, no locks,
//     integer-only formatting — enforced by the handler-path audit test in
//     tests/test_flightrec.cpp.
//
//   * analyze_crash_dump — the parsing/verdict core of `mdcp_cli
//     postmortem`: per-thread phase + heartbeat age, the retained event
//     tail, and a likely-stalled-phase verdict (the thread whose heartbeat
//     is oldest). Tolerates truncated dumps — a crash can lose tail lines.
//
// Dump schema (one JSON object per line):
//   {"type":"crash", "schema":"mdcp-crash-dump/1", "cause":"watchdog"|
//    "signal"|..., "signal":N, "now_ns":..., "pid":..., <provenance>}
//   {"type":"heartbeat", "tid":..,"epoch":..,"last_ns":..,"age_ns":..,
//    "phase":"..","detail":..}            one per thread that ever beat
//   {"type":"event", "seq":..,"ts_ns":..,"tid":..,"kind":"..",
//    "phase":"..","a":..,"b":..}          oldest-first ring contents
//   {"type":"kernel_stats", ...}          registered engine stats, if any
//   {"type":"counter","name":"..","value":..}  registered metric counters
//   {"type":"metrics","data":{...}}       full registry (watchdog path only)
//   {"type":"end","events_recorded":..,"torn":..}  presence = not truncated
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/workspace.hpp"

namespace mdcp::obs {

/// Crash-dump schema tag (first line of every dump).
inline constexpr const char* kCrashDumpSchema = "mdcp-crash-dump/1";

/// What the watchdog does when it fires.
enum class WatchdogPolicy : std::uint8_t {
  kReport = 0,  ///< write the dump, keep running
  kCancel = 1,  ///< write the dump, set the cooperative cancel flag
  kAbort = 2,   ///< write the dump, abort() (SIGABRT handler finalizes)
};
const char* watchdog_policy_name(WatchdogPolicy p) noexcept;
/// Parses "report"/"cancel"/"abort"; false on anything else.
bool watchdog_policy_from_name(const std::string& name, WatchdogPolicy& out);

struct WatchdogOptions {
  /// Fire when no heartbeat advances for this long. <= 0 disables the
  /// watchdog entirely (the default).
  double deadline_seconds = 0;
  /// Poll cadence; <= 0 picks deadline/4 clamped to [10 ms, 1 s].
  double poll_seconds = 0;
  WatchdogPolicy policy = WatchdogPolicy::kReport;
  /// Directory receiving `crash-<ns>-<pid>.json` on fire.
  std::string dump_dir = ".";
  /// Cancel flag set under kCancel policy. When null, cp_als wires this to
  /// its own run-local flag.
  std::atomic<bool>* cancel = nullptr;
};

/// The watchdog's fire rule: true once `deadline_ns` or more have passed
/// since `last_beat_ns`, the (monotonic) clock reading at which a poll last
/// saw the heartbeat progress advance. The monitor thread applies it at
/// every poll; it is a function of the three times only, so it can be
/// checked without threads or a clock.
constexpr bool watchdog_due(std::uint64_t last_beat_ns, std::uint64_t now_ns,
                            std::uint64_t deadline_ns) noexcept {
  return now_ns - last_beat_ns >= deadline_ns;
}

/// Liveness monitor. Starts its thread in the constructor (when the
/// deadline is positive) and joins it in stop()/the destructor. Fires at
/// most once per instance.
class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions options);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void stop() noexcept;
  bool fired() const noexcept { return fired_.load(std::memory_order_acquire); }
  /// Path of the dump written on fire ("" before/without firing). Stable
  /// once fired() is true.
  const std::string& dump_path() const noexcept { return dump_path_; }

 private:
  void run_();

  WatchdogOptions options_;
  std::string dump_path_;
  std::atomic<bool> fired_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

/// Wall-clock cooperative timeout (`mdcp_cli --timeout-s`): sets `*flag`
/// after `seconds`. Joined by the destructor.
class CancelTimer {
 public:
  CancelTimer(double seconds, std::atomic<bool>* flag);
  ~CancelTimer();
  CancelTimer(const CancelTimer&) = delete;
  CancelTimer& operator=(const CancelTimer&) = delete;

 private:
  std::atomic<bool>* flag_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Crash-dump writing.
// ---------------------------------------------------------------------------

/// Writes the signal-safe portion of a dump to `fd`: crash header line,
/// heartbeats, events, registered KernelStats, registered counters. Callable
/// from a signal handler. `cause` must be a static string. Returns the
/// number of torn ring slots skipped (for the end line).
std::size_t write_crash_dump_core(int fd, const char* cause,
                                  int sig) noexcept;

/// Writes the `{"type":"end",...}` terminator line. Signal-safe.
void write_crash_dump_end(int fd, std::size_t torn) noexcept;

/// Normal-context convenience: creates `<dir>/crash-<ns>-<pid>.json`, writes
/// core + full metrics snapshot + end, returns the path ("" on I/O failure).
std::string write_crash_dump_file(const std::string& dir, const char* cause,
                                  int sig);

// ---------------------------------------------------------------------------
// Crash-handler registration (process-wide static state; the handler cannot
// receive arguments).
// ---------------------------------------------------------------------------

/// Installs handlers for SIGSEGV/SIGBUS/SIGFPE/SIGABRT, pre-opens the dump
/// file in `dir`, pre-formats the provenance header, and snapshots metric
/// counter addresses so the handler can dump them without the registry
/// mutex. Returns false if the dump file cannot be created. Reinstalling
/// replaces the pre-opened dump.
bool crash_handlers_install(const std::string& dir);

/// Restores the previous signal dispositions. Removes the pre-opened dump
/// file when no crash ever wrote to it.
void crash_handlers_uninstall() noexcept;

/// Path of the pre-opened dump file ("" when not installed).
std::string crash_dump_path();

/// True once any path (handler or watchdog via mark) wrote a dump.
bool crash_dump_written() noexcept;

/// Registers the engine stats the next dump should snapshot (nullptr to
/// clear). The pointee must outlive the registration.
void crash_set_kernel_stats(const KernelStats* stats) noexcept;

/// Registers the in-flight run report for crash finalization: the handler
/// appends `aborted_summary_line` (a complete JSON summary record with
/// "aborted":true) to `tmp_path` through a pre-opened O_APPEND fd and
/// renames it to `final_path`, promoting the orphan `.tmp` into a report the
/// history store will ingest. Call detach on clean completion.
void crash_attach_report(const std::string& tmp_path,
                         const std::string& final_path,
                         const std::string& aborted_summary_line);
void crash_detach_report() noexcept;

// ---------------------------------------------------------------------------
// Postmortem analysis (`mdcp_cli postmortem`).
// ---------------------------------------------------------------------------

struct CrashThreadState {
  std::uint32_t tid = 0;
  std::uint64_t epoch = 0;
  std::uint64_t last_ns = 0;
  std::uint64_t age_ns = 0;
  std::string phase;
  std::int64_t detail = 0;
};

struct CrashEvent {
  std::uint64_t seq = 0;
  std::uint64_t ts_ns = 0;
  std::uint32_t tid = 0;
  std::string kind;
  std::string phase;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

struct CrashDumpAnalysis {
  // Header.
  std::string cause;  ///< "watchdog", "signal", test causes
  int signal = 0;
  std::uint64_t now_ns = 0;  ///< dump-time clock (age_ns reference)
  std::int64_t pid = 0;
  std::string host;

  std::vector<CrashThreadState> threads;  ///< sorted by tid
  std::vector<CrashEvent> events;         ///< oldest-first
  /// {"name",value} counter lines, in dump order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  bool has_kernel_stats = false;
  std::uint64_t compute_calls = 0;
  std::uint64_t degradations = 0;

  /// True when the `{"type":"end"}` terminator was present — i.e. the dump
  /// was not cut off mid-write.
  bool complete = false;
  std::size_t truncated_lines = 0;  ///< unparseable (torn) trailing lines

  // Verdict: the thread with the oldest heartbeat, and the phase it was in.
  bool has_verdict = false;
  std::uint32_t verdict_tid = 0;
  std::string verdict_phase;
  std::int64_t verdict_detail = 0;
  std::uint64_t verdict_age_ns = 0;
};

/// Parses a crash dump. Returns false (with `error` set) only when the file
/// cannot be read or contains no valid crash header line; truncated or
/// partially torn dumps still analyze (complete=false, truncated_lines>0).
bool analyze_crash_dump(const std::string& path, CrashDumpAnalysis& out,
                        std::string* error = nullptr);

}  // namespace mdcp::obs
