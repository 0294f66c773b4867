// Hardware performance counters via perf_event_open, with graceful decay.
//
// The paper argues from a *cost model* (flops and bytes); this module
// supplies the measured side: cycles, instructions, LLC traffic, branch
// misses, stalls, plus two software events (task clock, page faults) that
// survive on PMU-less VMs. Everything degrades per counter: each event is
// opened individually, whatever the kernel refuses (perf_event_paranoid,
// missing PMU, non-Linux build) is simply absent from the validity mask, and
// the run continues with those counters reported as unavailable/null.
//
// Layers:
//   * PerfEventSet  — RAII fd bundle. Opened with inherit=1 it also
//     aggregates threads spawned *after* it (open it before the OpenMP pool
//     comes up to capture worker threads).
//   * Perf          — process-wide switchboard: runtime on/off and a lazily
//     opened inherited "process set".
// The measuring scope is obs::Phase (obs/phase.hpp): with Perf enabled,
// each phase attaches its counter deltas to its trace span (Chrome "args",
// visible in Perfetto) and adds them to the `perf.<counter>` metrics.
//
// Cost: one relaxed atomic load per phase when perf is disabled (the
// default); when enabled, one read() syscall per open counter at phase
// entry and exit. Multiplexed counters are scaled by time_enabled /
// time_running, so deltas stay comparable when the PMU is oversubscribed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "obs/trace.hpp"

namespace mdcp::obs {

/// Fixed counter vocabulary. Order is the slot order in TraceEvent::perf
/// and in every mask in this module.
enum class PerfCounterId : std::uint8_t {
  kCycles = 0,
  kInstructions,
  kLlcLoads,
  kLlcMisses,
  kBranchMisses,
  kStalledCycles,
  kTaskClockNs,
  kPageFaults,
};

inline constexpr std::size_t kPerfCounterCount = 8;
static_assert(kPerfCounterCount <= TraceEvent::kPerfSlots,
              "TraceEvent::kPerfSlots must cover every PerfCounterId");

/// Stable short name ("cycles", "llc_misses", ...), used in JSON exports
/// and Chrome trace args.
const char* perf_counter_name(PerfCounterId id) noexcept;

/// One snapshot or delta of the counter vector. A slot is meaningful iff
/// its bit is set in `valid_mask`.
struct PerfValues {
  std::array<std::uint64_t, kPerfCounterCount> value{};
  std::uint16_t valid_mask = 0;

  bool valid(PerfCounterId id) const noexcept {
    return ((valid_mask >> static_cast<unsigned>(id)) & 1u) != 0;
  }
  std::uint64_t get(PerfCounterId id, std::uint64_t def = 0) const noexcept {
    return valid(id) ? value[static_cast<std::size_t>(id)] : def;
  }
  bool any() const noexcept { return valid_mask != 0; }

  /// Field-wise difference (this - begin) over the common valid mask.
  PerfValues since(const PerfValues& begin) const noexcept;
};

/// RAII bundle of perf_event fds for the opening thread. Each counter is
/// opened independently; ask open_mask() what actually materialized.
class PerfEventSet {
 public:
  /// `inherit_children`: also count threads created by the opening thread
  /// *after* construction (used for the process-scope set).
  explicit PerfEventSet(bool inherit_children);
  ~PerfEventSet();
  PerfEventSet(const PerfEventSet&) = delete;
  PerfEventSet& operator=(const PerfEventSet&) = delete;

  /// Bit i set = counter i was opened successfully.
  std::uint16_t open_mask() const noexcept { return open_mask_; }
  bool any() const noexcept { return open_mask_ != 0; }

  /// Reads every open counter (scaled for multiplexing). Slots that fail to
  /// read are dropped from the result's valid mask.
  PerfValues read_values() const noexcept;

 private:
  std::array<int, kPerfCounterCount> fds_;
  std::uint16_t open_mask_ = 0;
};

/// Process-wide perf switchboard.
class Perf {
 public:
  static Perf& instance();

  /// True when at least one counter can be opened on this system. Probed
  /// once per process; never throws.
  static bool counters_supported();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Enables/disables counting in obs::Phase. Enabling opens the process
  /// set from the calling thread — call it early (before the OpenMP pool
  /// spins up) so worker threads are inherited into the aggregate counts.
  void set_enabled(bool on);

  /// The inherited, process-scope set (nullptr when disabled or when no
  /// counter could be opened).
  PerfEventSet* process_set() noexcept;

  /// open_mask() of the process set; 0 when disabled/unavailable.
  std::uint16_t available_mask() noexcept;

 private:
  Perf() = default;

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  // guards process_set_ creation
  std::unique_ptr<PerfEventSet> process_set_;
};

}  // namespace mdcp::obs
