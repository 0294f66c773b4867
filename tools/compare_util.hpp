// Findings printer shared by bench_diff, `mdcp_cli compare` and
// `mdcp_cli drift`. Every verdict comes from obs::band (obs/history.hpp);
// this file only prints the findings and maps them to the exit status.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/history.hpp"
#include "obs/json.hpp"

namespace mdcp::tools {

/// A finding for something the two inputs cannot be compared on (a table,
/// row or fingerprint present in one and not the other).
inline obs::Finding mismatch(std::string what) {
  obs::Finding f;
  f.kernel = std::move(what);
  f.status = "structural";
  return f;
}

/// Prints `findings` and returns the exit status: 2 when one is
/// structural, else 1 when one is a regression, else 0. Text lists, under
/// `title`, the findings that are not "ok"; with `json` (an open object that
/// already holds the command's own keys) every finding is listed and the
/// object is closed and printed.
inline int print_findings(const std::string& title, double threshold,
                          const std::vector<obs::Finding>& findings,
                          obs::JsonWriter* json) {
  int compared = 0, regressions = 0, structural = 0;
  for (const obs::Finding& f : findings) {
    if (std::strcmp(f.status, "structural") == 0)
      ++structural;
    else
      ++compared;
    if (std::strcmp(f.status, "regression") == 0) ++regressions;
  }

  if (json != nullptr) {
    obs::JsonWriter& w = *json;
    w.kv("threshold", threshold)
        .kv("compared", compared)
        .kv("regressions", regressions)
        .kv("structural", structural)
        .kv("regressed", regressions > 0);
    w.key("findings").begin_array();
    for (const obs::Finding& f : findings) {
      w.begin_object().kv("kernel", f.kernel).kv("status", f.status);
      if (std::strcmp(f.status, "structural") != 0)
        w.kv("measured", f.measured)
            .kv("median", f.median)
            .kv("scale", f.scale)
            .kv("z", f.z);
      w.end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s (threshold %.0f%%)\n", title.c_str(), threshold * 100.0);
    for (const obs::Finding& f : findings) {
      if (std::strcmp(f.status, "structural") == 0)
        std::printf("  MISMATCH    %s\n", f.kernel.c_str());
      else if (std::strcmp(f.status, "ok") != 0)
        std::printf("  %-11s %s  %.4g -> %.4g  (%.2fx, z %+.2f)\n",
                    std::strcmp(f.status, "regression") == 0 ? "REGRESSION"
                                                             : "improved",
                    f.kernel.c_str(), f.median, f.measured,
                    f.measured / f.median, f.z);
    }
    std::printf("compared %d value(s): %d regression(s), %d structural "
                "problem(s)\n",
                compared, regressions, structural);
  }
  if (structural > 0) return 2;
  return regressions > 0 ? 1 : 0;
}

}  // namespace mdcp::tools
