// Resource-usage deltas from getrusage(), shared by the tools that report
// what a run cost: bench_runner (RUSAGE_CHILDREN, around each bench child)
// and `mdcp_cli profile` (RUSAGE_SELF, around each engine's timed reps).
// These counters exist on every Unix host, PMU-less VMs included. On other
// platforms the delta stays invalid.
#pragma once

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mdcp::tools {

struct RusageDelta {
  double user_seconds = 0;
  double system_seconds = 0;
  long max_rss_kib = 0;  ///< high-water mark at the end, not a delta
  long page_faults = 0;  ///< minor + major
  bool valid = false;
};

#if defined(__unix__) || defined(__APPLE__)
/// `who` is RUSAGE_SELF or RUSAGE_CHILDREN.
inline rusage rusage_now(int who) {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  ::getrusage(who, &ru);
  return ru;
}

inline double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// What `who` used since `begin` (a rusage_now(who) reading).
inline RusageDelta rusage_since(int who, const rusage& begin) {
  const rusage now = rusage_now(who);
  RusageDelta d;
  d.user_seconds = tv_seconds(now.ru_utime) - tv_seconds(begin.ru_utime);
  d.system_seconds = tv_seconds(now.ru_stime) - tv_seconds(begin.ru_stime);
  d.max_rss_kib = now.ru_maxrss;
  d.page_faults =
      (now.ru_minflt + now.ru_majflt) - (begin.ru_minflt + begin.ru_majflt);
  d.valid = true;
  return d;
}
#endif

}  // namespace mdcp::tools
