#include "obs/perf.hpp"

#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mdcp::obs {

const char* perf_counter_name(PerfCounterId id) noexcept {
  switch (id) {
    case PerfCounterId::kCycles: return "cycles";
    case PerfCounterId::kInstructions: return "instructions";
    case PerfCounterId::kLlcLoads: return "llc_loads";
    case PerfCounterId::kLlcMisses: return "llc_misses";
    case PerfCounterId::kBranchMisses: return "branch_misses";
    case PerfCounterId::kStalledCycles: return "stalled_cycles";
    case PerfCounterId::kTaskClockNs: return "task_clock_ns";
    case PerfCounterId::kPageFaults: return "page_faults";
  }
  return "unknown";
}

PerfValues PerfValues::since(const PerfValues& begin) const noexcept {
  PerfValues d;
  d.valid_mask = valid_mask & begin.valid_mask;
  for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
    if (((d.valid_mask >> i) & 1u) == 0) continue;
    // Multiplex scaling can make a later reading infinitesimally smaller;
    // clamp instead of wrapping to ~2^64.
    d.value[i] = value[i] >= begin.value[i] ? value[i] - begin.value[i] : 0;
  }
  return d;
}

#if defined(__linux__)

namespace {

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

// Slot order == PerfCounterId order.
constexpr EventSpec kEventSpecs[kPerfCounterCount] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16)},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
};

int open_event(const EventSpec& spec, bool inherit, bool exclude_kernel) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = spec.type;
  attr.size = sizeof(attr);
  attr.config = spec.config;
  attr.disabled = 0;
  attr.inherit = inherit ? 1 : 0;
  attr.exclude_kernel = exclude_kernel ? 1 : 0;
  attr.exclude_hv = 1;
  // time_enabled/time_running let readers rescale multiplexed counters.
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      ::syscall(__NR_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                /*group_fd=*/-1, /*flags=*/0UL));
}

}  // namespace

PerfEventSet::PerfEventSet(bool inherit_children) {
  fds_.fill(-1);
  for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
    int fd = open_event(kEventSpecs[i], inherit_children,
                        /*exclude_kernel=*/false);
    if (fd < 0) {
      // perf_event_paranoid >= 2 forbids kernel-inclusive counting for
      // unprivileged users; user-space-only counting may still be allowed.
      fd = open_event(kEventSpecs[i], inherit_children,
                      /*exclude_kernel=*/true);
    }
    if (fd >= 0) {
      fds_[i] = fd;
      open_mask_ |= static_cast<std::uint16_t>(1u << i);
    }
  }
}

PerfEventSet::~PerfEventSet() {
  for (const int fd : fds_)
    if (fd >= 0) ::close(fd);
}

PerfValues PerfEventSet::read_values() const noexcept {
  PerfValues out;
  for (std::size_t i = 0; i < kPerfCounterCount; ++i) {
    if (fds_[i] < 0) continue;
    std::uint64_t buf[3] = {0, 0, 0};  // value, time_enabled, time_running
    const ssize_t n = ::read(fds_[i], buf, sizeof(buf));
    if (n != static_cast<ssize_t>(sizeof(buf))) continue;
    std::uint64_t v = buf[0];
    if (buf[2] != 0 && buf[2] < buf[1]) {
      // Counter was multiplexed off-PMU part of the time: extrapolate.
      const double scale =
          static_cast<double>(buf[1]) / static_cast<double>(buf[2]);
      v = static_cast<std::uint64_t>(static_cast<double>(v) * scale);
    }
    out.value[i] = v;
    out.valid_mask |= static_cast<std::uint16_t>(1u << i);
  }
  return out;
}

#else  // !__linux__

PerfEventSet::PerfEventSet(bool inherit_children) {
  (void)inherit_children;
  fds_.fill(-1);
}

PerfEventSet::~PerfEventSet() = default;

PerfValues PerfEventSet::read_values() const noexcept { return {}; }

#endif  // __linux__

Perf& Perf::instance() {
  static Perf perf;
  return perf;
}

bool Perf::counters_supported() {
  static const bool supported = [] {
    const PerfEventSet probe(/*inherit_children=*/false);
    return probe.any();
  }();
  return supported;
}

void Perf::set_enabled(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(mu_);
    if (process_set_ == nullptr && counters_supported())
      process_set_ = std::make_unique<PerfEventSet>(/*inherit_children=*/true);
  }
  enabled_.store(on, std::memory_order_relaxed);
}

PerfEventSet* Perf::process_set() noexcept {
  if (!enabled()) return nullptr;
  // process_set_ is written once under mu_ (in set_enabled) before enabled_
  // flips true, so this unlocked read is safe.
  PerfEventSet* set = process_set_.get();
  return (set != nullptr && set->any()) ? set : nullptr;
}

std::uint16_t Perf::available_mask() noexcept {
  const PerfEventSet* set = process_set();
  return set != nullptr ? set->open_mask() : 0;
}

}  // namespace mdcp::obs
