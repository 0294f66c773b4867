// bench_runner — runs the experiment bench suite and aggregates every
// binary's --json tables into one self-describing telemetry file:
//
//   bench_runner --bench-dir build/bench --out BENCH_<sha>.json
//                [--sha REV] [--only b1,b2,...] [--calib-seconds S]
//
// The output carries a provenance header (build info, bench scale, machine
// roofline ceilings) plus, per bench, the wall time, a child-rusage summary
// (user/sys time, max RSS, page faults), and the tables verbatim. The
// file is the input format of bench_diff; CI commits one as the regression
// baseline.
//
// Exit status: 0 when every bench ran and parsed, 1 on usage errors, 2 when
// any bench failed or emitted unparseable output.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mdcp.hpp"
#include "number_arg.hpp"
#include "rusage_util.hpp"

namespace {

using namespace mdcp;

// The experiment suite, in EXPERIMENTS.md order. bench_kernels is excluded:
// it is a google-benchmark harness with its own output format.
const char* const kBenches[] = {
    "bench_mttkrp",     "bench_cpals",      "bench_datasets",
    "bench_memory",     "bench_model",      "bench_symbolic",
    "bench_order_sweep", "bench_rank_sweep", "bench_threads",
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: bench_runner --bench-dir DIR --out FILE [--sha REV]\n"
               "                    [--only b1,b2,...] [--calib-seconds S]\n");
  std::exit(1);
}

struct BenchResult {
  std::string name;
  double seconds = 0;
  int exit_code = -1;
  tools::RusageDelta rusage;
  std::vector<obs::JsonValue> tables;
  std::vector<std::string> parse_errors;
};

/// Runs one bench binary with --json and parses each stdout line as a table
/// object. Returns false only if the binary could not be started.
bool run_bench(const std::string& dir, const std::string& name,
               BenchResult& out) {
  out.name = name;
  const std::string cmd = dir + "/" + name + " --json 2>/dev/null";
#if defined(__unix__) || defined(__APPLE__)
  const rusage ru_begin = tools::rusage_now(RUSAGE_CHILDREN);
#endif
  WallTimer timer;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    line += buf;
    if (line.empty() || line.back() != '\n') continue;  // long line, keep
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
      line.pop_back();
    if (!line.empty()) {
      obs::JsonValue table;
      std::string err;
      if (obs::json_parse(line, table, &err) && table.is_object()) {
        out.tables.push_back(std::move(table));
      } else {
        out.parse_errors.push_back(err.empty() ? "not a JSON object" : err);
      }
    }
    line.clear();
  }
  const int status = ::pclose(pipe);
  out.seconds = timer.seconds();
#if defined(__unix__) || defined(__APPLE__)
  out.rusage = tools::rusage_since(RUSAGE_CHILDREN, ru_begin);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  out.exit_code = status;
#endif
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_dir, out_path, sha = "local", only;
  double calib_seconds = 0.2;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      const auto v = tools::parse_number(text);
      if (!v) usage(tools::not_a_number(a.substr(2), text).c_str());
      return *v;
    };
    if (a == "--bench-dir") bench_dir = next();
    else if (a == "--out") out_path = next();
    else if (a == "--sha") sha = next();
    else if (a == "--only") only = next();
    else if (a == "--calib-seconds") calib_seconds = number(next());
    else usage(("unknown flag: " + a).c_str());
  }
  if (bench_dir.empty()) usage("need --bench-dir");
  if (out_path.empty()) usage("need --out");

  std::vector<std::string> selected;
  if (only.empty()) {
    for (const char* b : kBenches) selected.push_back(b);
  } else {
    std::size_t pos = 0;
    while (pos <= only.size()) {
      const std::size_t comma = only.find(',', pos);
      const std::string name = only.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!name.empty()) selected.push_back(name);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  // Machine context: roofline ceilings, so a BENCH file says what the
  // hardware could do, not just what the benches did.
  const obs::RooflineCeilings ceilings = obs::calibrate_roofline(calib_seconds);

  bool failed = false;
  std::vector<BenchResult> results;
  for (const auto& name : selected) {
    BenchResult r;
    std::fprintf(stderr, "[bench_runner] %s ...\n", name.c_str());
    if (!run_bench(bench_dir, name, r)) {
      std::fprintf(stderr, "[bench_runner] %s: cannot start\n", name.c_str());
      r.exit_code = -1;
      failed = true;
    } else if (r.exit_code != 0) {
      std::fprintf(stderr, "[bench_runner] %s: exit %d\n", name.c_str(),
                   r.exit_code);
      failed = true;
    } else if (!r.parse_errors.empty()) {
      std::fprintf(stderr, "[bench_runner] %s: %zu unparseable line(s): %s\n",
                   name.c_str(), r.parse_errors.size(),
                   r.parse_errors[0].c_str());
      failed = true;
    } else {
      std::fprintf(stderr, "[bench_runner] %s: %zu table(s) in %.1fs\n",
                   name.c_str(), r.tables.size(), r.seconds);
    }
    results.push_back(std::move(r));
  }

  obs::JsonWriter w;
  w.begin_object().kv("schema", "mdcp-bench/1").kv("sha", sha);
  const auto& b = obs::BuildInfo::current();
  w.key("build").begin_object()
      .kv("compiler", b.compiler)
      .kv("build_type", b.build_type)
      .kv("flags", b.flags)
      .kv("openmp", b.openmp)
      .kv("hardware_threads", b.hardware_threads)
      .end_object();
  const char* scale_env = std::getenv("MDCP_BENCH_SCALE");
  w.kv("bench_scale", scale_env ? std::atof(scale_env) : 1.0);
  w.key("machine").begin_object();
  w.key("ceilings").begin_object()
      .kv("fma_gflops", ceilings.fma_gflops)
      .kv("triad_gbps", ceilings.triad_gbps)
      .kv("ridge_intensity", ceilings.ridge_intensity())
      .kv("threads", ceilings.threads)
      .end_object()
      .end_object();
  w.key("benches").begin_array();
  for (const auto& r : results) {
    w.begin_object()
        .kv("name", r.name)
        .kv("exit_code", r.exit_code)
        .kv("seconds", r.seconds);
    if (r.rusage.valid) {
      w.key("rusage").begin_object()
          .kv("user_seconds", r.rusage.user_seconds)
          .kv("system_seconds", r.rusage.system_seconds)
          .kv("max_rss_kib", static_cast<std::int64_t>(r.rusage.max_rss_kib))
          .kv("page_faults", static_cast<std::int64_t>(r.rusage.page_faults))
          .end_object();
    }
    w.key("tables").begin_array();
    for (const auto& t : r.tables) t.write(w);
    w.end_array().end_object();
  }
  w.end_array().end_object();

  std::ofstream os(out_path);
  if (!os.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 2;
  }
  os << w.str() << '\n';
  std::fprintf(stderr, "[bench_runner] wrote %s (%zu bench(es))\n",
               out_path.c_str(), results.size());
  return failed ? 2 : 0;
}
