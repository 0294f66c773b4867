// mdcp command-line tool.
//
//   mdcp_cli info [--json]
//   mdcp_cli stats <tensor.tns> [--no-strict]
//   mdcp_cli generate --kind uniform|zipf|clustered --shape I1xI2x... \
//                     --nnz N [--seed S] [--zipf-exp E] [--clusters C] --out F
//   mdcp_cli tune <tensor.tns> [--rank R] [--mem-budget MB] [--probe]
//                 [--no-strict]
//   mdcp_cli decompose <tensor.tns> [--rank R] [--engine NAME] [--iters K]
//                      [--tol T] [--seed S] [--restarts N] [--nonnegative]
//                      [--threads T] [--mem-budget MB] [--no-strict]
//                      [--out-prefix P]
//                      [--trace T.json] [--metrics M.json] [--report R.jsonl]
//                      [--history-dir D] [--no-history] [--probe]
//                      [--watchdog-s N] [--watchdog-policy report|cancel|abort]
//                      [--timeout-s N] [--crash-dir D]
//   mdcp_cli profile [tensor.tns] [--rank R] [--engines a,b,...] [--reps N]
//                    [--threads T] [--calib-seconds S] [--json] [--out F]
//                    [--nnz N] [--seed S] [--no-strict]
//   mdcp_cli history <dir> [--json]
//   mdcp_cli compare <base.jsonl> <new.jsonl> [--threshold T] [--json]
//   mdcp_cli drift <report.jsonl> --history-dir D [--threshold T] [--json]
//   mdcp_cli postmortem <crash-dump.json> [--events N] [--json]
//
// compare and drift band each kernel (every mode's fastest iteration, and
// their sum) with obs::band: z = (new − median)/scale, scale =
// max(1.4826·MAD, (T/3.5)·median), a regression when z > 3.5. compare's
// median is the base report's value (T defaults to 0.25, so new >
// base·1.25); drift's is over the stored comparable runs (T defaults to
// 0.42, a 12% floor).
//
// A flag the subcommand does not read, a flag given without its value and a
// value that is not a number where one is expected are usage errors.
// Exit status: 0 on success, 1 on usage errors (compare/drift: 1 also means
// a regression was found), 2 on runtime/structural errors.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "compare_util.hpp"
#include "mdcp.hpp"
#include "number_arg.hpp"
#include "rusage_util.hpp"

namespace {

using namespace mdcp;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  mdcp_cli info [--json]\n"
               "  mdcp_cli stats <tensor.tns> [--no-strict]\n"
               "  mdcp_cli generate --kind uniform|zipf|clustered "
               "--shape I1xI2x... --nnz N\n"
               "                    [--seed S] [--zipf-exp E] [--clusters C] "
               "--out FILE\n"
               "  mdcp_cli tune <tensor.tns> [--rank R] [--mem-budget MB] "
               "[--probe] [--no-strict]\n"
               "  mdcp_cli decompose <tensor.tns> [--rank R] [--engine E] "
               "[--iters K] [--tol T]\n"
               "                     [--seed S] [--restarts N] [--algorithm als|mu] "
               "[--nonnegative] [--threads T]\n"
               "                     [--mem-budget MB] [--no-strict]\n"
               "                     [--out-prefix P] [--trace T.json] "
               "[--metrics M.json]\n"
               "                     [--report R.jsonl] [--history-dir D] "
               "[--no-history]\n"
               "                     [--probe] [--watchdog-s N] "
               "[--watchdog-policy P]\n"
               "                     [--timeout-s N] [--crash-dir D]\n"
               "  mdcp_cli profile [tensor.tns] [--rank R] [--engines a,b,...] "
               "[--reps N]\n"
               "                   [--threads T] [--calib-seconds S] [--json] "
               "[--out FILE]\n"
               "                   [--nnz N] [--seed S] [--no-strict]\n"
               "  mdcp_cli history <dir> [--json]\n"
               "  mdcp_cli compare <base.jsonl> <new.jsonl> [--threshold T] "
               "[--json]\n"
               "  mdcp_cli drift <report.jsonl> --history-dir D "
               "[--threshold T] [--json]\n"
               "  mdcp_cli postmortem <crash-dump.json> [--events N] "
               "[--json]\n"
               "\ncompare and drift flag a kernel when "
               "(new - median) / scale > 3.5,\n"
               "scale = max(1.4826 * MAD, (T / 3.5) * median); T defaults to "
               "0.25 (compare)\nand 0.42 (drift).\n"
               "\nengines:\n");
  for (const auto& e : EngineRegistry::instance().entries())
    std::fprintf(stderr, "  %-12s %s\n", e.name.c_str(),
                 e.description.c_str());
  std::exit(1);
}

// --flag value / --switch parser for one subcommand: `flags` take a value,
// `switches` take none. Any other flag, and a flag without its value, is a
// usage error.
class Args {
 public:
  Args(int argc, char** argv, int first, const std::string& cmd,
       std::initializer_list<const char*> flags,
       std::initializer_list<const char*> switches) {
    const auto lists = [](std::initializer_list<const char*> names,
                          const std::string& key) {
      return std::find(names.begin(), names.end(), key) != names.end();
    };
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        positional_.push_back(std::move(a));
        continue;
      }
      const std::string key = a.substr(2);
      if (lists(switches, key)) {
        kv_[key] = "";
      } else if (!lists(flags, key)) {
        usage(("unknown flag --" + key + " for " + cmd).c_str());
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[key] = argv[++i];
      } else {
        usage(("missing value for --" + key).c_str());
      }
    }
  }

  bool has(const std::string& k) const { return kv_.count(k) > 0; }
  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second;
  }
  double get_num(const std::string& k, double def) const {
    const auto it = kv_.find(k);
    if (it == kv_.end()) return def;
    const auto v = tools::parse_number(it->second);
    if (!v) usage(tools::not_a_number(k, it->second).c_str());
    return *v;
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

// Reads a .tns input honoring the CLI strictness flag. Strict parsing is the
// default; --no-strict skips malformed records (with a count on stderr)
// instead of failing the whole run.
CooTensor read_input(const Args& args, const std::string& path) {
  TnsReadOptions io;
  io.strict = !args.has("no-strict");
  TnsReadStats st;
  CooTensor t = read_tns_file(path, {}, io, &st);
  if (st.skipped_malformed > 0)
    std::fprintf(stderr, "warning: %s: skipped %zu malformed record(s)\n",
                 path.c_str(), st.skipped_malformed);
  return t;
}

shape_t parse_shape(const std::string& s) {
  // Every 'x'-separated token must be a whole positive number that fits an
  // index ("10ax20", "10x" and "10.5x20" are all rejected).
  const std::string bad = "--shape needs positive whole numbers joined by x "
                          "(e.g. 100x200x300), got '" + s + "'";
  shape_t shape;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t next = s.find('x', pos);
    const auto v = tools::parse_number(s.substr(pos, next == std::string::npos
                                                          ? std::string::npos
                                                          : next - pos));
    if (!v || *v < 1 || *v != std::floor(*v) ||
        *v > static_cast<double>(std::numeric_limits<index_t>::max()))
      usage(bad.c_str());
    shape.push_back(static_cast<index_t>(*v));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return shape;
}

int cmd_info(const Args& args) {
  const auto& b = obs::BuildInfo::current();
  const auto& registry = EngineRegistry::instance();
  if (args.has("json")) {
    obs::JsonWriter w;
    w.begin_object()
        .kv("compiler", b.compiler)
        .kv("flags", b.flags)
        .kv("build_type", b.build_type)
        .kv("openmp", b.openmp)
        .kv("openmp_version", b.openmp_version)
        .kv("tracing_compiled", b.tracing)
        .kv("kernel_isa", b.kernel_isa)
        .kv("hardware_threads", b.hardware_threads)
        .kv("kernel_threads", num_threads());
    w.key("engines").begin_array();
    for (const auto& e : registry.entries()) {
      w.begin_object().kv("name", e.name).kv("description", e.description)
          .end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("compiler:         %s\n", b.compiler.c_str());
  std::printf("build type:       %s\n", b.build_type.c_str());
  std::printf("flags:            %s\n", b.flags.c_str());
  std::printf("openmp:           %s (version %d)\n", b.openmp ? "yes" : "no",
              b.openmp_version);
  std::printf("tracing:          %s\n",
              b.tracing ? "compiled in (enable with --trace)" : "compiled out");
  std::printf("kernel isa:       %s\n", b.kernel_isa.c_str());
  std::printf("hardware threads: %u\n", b.hardware_threads);
  std::printf("kernel threads:   %d\n", num_threads());
  std::printf("engines:\n");
  for (const auto& e : registry.entries())
    std::printf("  %-12s %s\n", e.name.c_str(), e.description.c_str());
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional().empty()) usage("stats needs a tensor file");
  const CooTensor t = read_input(args, args.positional()[0]);
  const auto s = compute_stats(t);
  std::printf("%s\n", s.to_string().c_str());
  for (mdcp::mode_t m = 0; m < t.order(); ++m) {
    std::printf("mode %u: size %u, used %u (%.1f%%), avg slice nnz %.1f\n", m,
                t.dim(m), s.distinct_per_mode[m],
                100.0 * s.distinct_per_mode[m] / t.dim(m),
                s.avg_slice_nnz[m]);
  }
  return 0;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind", "uniform");
  const shape_t shape = parse_shape(args.get("shape"));
  const auto nnz = static_cast<nnz_t>(args.get_num("nnz", 0));
  if (nnz == 0) usage("generate needs --nnz");
  const auto seed = static_cast<std::uint64_t>(args.get_num("seed", 1));
  const std::string out = args.get("out");
  if (out.empty()) usage("generate needs --out");

  CooTensor t;
  if (kind == "uniform") {
    t = generate_uniform(shape, nnz, seed);
  } else if (kind == "zipf") {
    t = generate_zipf(shape, nnz, args.get_num("zipf-exp", 1.1), seed);
  } else if (kind == "clustered") {
    ClusteredOptions opt;
    opt.clusters = static_cast<index_t>(args.get_num("clusters", 64));
    t = generate_clustered(shape, nnz, opt, seed);
  } else {
    usage(("unknown --kind: " + kind).c_str());
  }
  write_tns_file(out, t);
  std::printf("wrote %s: %s\n", out.c_str(), t.summary().c_str());
  return 0;
}

int cmd_tune(const Args& args) {
  if (args.positional().empty()) usage("tune needs a tensor file");
  const CooTensor t = read_input(args, args.positional()[0]);
  const auto rank = static_cast<index_t>(args.get_num("rank", 16));
  const auto budget = static_cast<std::size_t>(
      args.get_num("mem-budget", 0) * 1024.0 * 1024.0);
  // Rank at the thread count the kernels run with, as the auto engine does.
  CostModelParams params;
  params.threads = num_threads();

  auto& passes =
      obs::MetricsRegistry::instance().counter("tuner.sketch_passes");
  const std::uint64_t passes_before = passes.value();
  const WallTimer timer;
  const TunerReport report =
      args.has("probe") ? select_strategy_probed(t, rank, budget, params)
                        : select_strategy(t, rank, budget, params);
  const double select_seconds = timer.seconds();
  std::printf("%-16s %-28s %-12s %-12s %s\n", "strategy", "tree", "pred-time",
              "memory", "fits-budget");
  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    const auto& rs = report.ranked[i];
    std::printf("%-16s %-28s %-12.4g %-12zu %s%s\n", rs.strategy.name.c_str(),
                rs.strategy.spec.to_string().c_str(),
                rs.prediction.seconds_per_iteration,
                rs.prediction.total_memory_bytes(),
                rs.fits_budget ? "yes" : "no",
                i == report.chosen ? "   <== chosen" : "");
  }
  std::printf("selection: %.4g s, %llu sketch passes, %d threads\n",
              select_seconds,
              static_cast<unsigned long long>(passes.value() - passes_before),
              num_threads());
  return 0;
}

void write_factor(const std::string& path, const Matrix& f) {
  std::ofstream os(path);
  MDCP_CHECK_MSG(os.good(), "cannot write " << path);
  os.precision(17);
  for (index_t i = 0; i < f.rows(); ++i) {
    for (index_t r = 0; r < f.cols(); ++r) {
      if (r) os << ' ';
      os << f(i, r);
    }
    os << '\n';
  }
}

int cmd_decompose(const Args& args) {
  if (args.positional().empty()) usage("decompose needs a tensor file");
  // Tracing starts before the read, so the trace holds its io.read span.
  const std::string trace_path = args.get("trace");
  if (!trace_path.empty()) {
    obs::Tracer::instance().set_process_name("mdcp_cli decompose");
    if (!obs::BuildInfo::current().tracing)
      std::fprintf(stderr,
                   "warning: built with MDCP_ENABLE_TRACING=OFF; %s will "
                   "contain no spans\n",
                   trace_path.c_str());
    obs::Tracer::instance().set_enabled(true);
  }

  const CooTensor t = read_input(args, args.positional()[0]);
  std::printf("input: %s\n", t.summary().c_str());

  if (args.has("threads"))
    set_num_threads(static_cast<int>(args.get_num("threads", 1)));

  // Cross-run history: --history-dir names a directory of JSONL run reports
  // (the persistent store — see obs/history.hpp). Prior runs are ingested
  // for the tuner's empirical overlay, and this run's report is written into
  // the directory so the next run sees it.
  obs::HistoryStore history;
  obs::HistoryIngestStats ingest_stats;
  const std::string history_dir = args.get("history-dir");
  if (!history_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(history_dir, ec);
    if (ec)
      usage(("cannot create --history-dir " + history_dir).c_str());
    ingest_stats = history.ingest_dir(history_dir);
    if (ingest_stats.files_unparseable + ingest_stats.files_unknown_version +
            ingest_stats.files_incomplete >
        0)
      std::fprintf(stderr,
                   "warning: %s: skipped %zu unparseable, %zu "
                   "unknown-version, %zu incomplete report(s)\n",
                   history_dir.c_str(), ingest_stats.files_unparseable,
                   ingest_stats.files_unknown_version,
                   ingest_stats.files_incomplete);
  }

  std::unique_ptr<obs::RunReporter> reporter;
  std::string report_path = args.get("report");
  if (report_path.empty() && !history_dir.empty()) {
    // Unique-enough name per run: monotonic nanoseconds + pid.
    unsigned long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
    pid = static_cast<unsigned long>(::getpid());
#endif
    report_path = history_dir + "/run-" + std::to_string(obs::clock_ns()) +
                  "-" + std::to_string(pid) + ".jsonl";
  }
  if (!report_path.empty()) {
    reporter = std::make_unique<obs::RunReporter>(report_path);
    if (!reporter->ok()) usage(("cannot write --report " + report_path).c_str());
    reporter->write_header(t, "decompose", num_threads());
  }

  CpAlsOptions opt;
  opt.rank = static_cast<index_t>(args.get_num("rank", 16));
  opt.max_iterations = static_cast<int>(args.get_num("iters", 50));
  opt.tolerance = static_cast<real_t>(args.get_num("tol", 1e-5));
  opt.seed = static_cast<std::uint64_t>(args.get_num("seed", 42));
  opt.engine = args.get("engine", "auto");
  if (!EngineRegistry::instance().contains(opt.engine))
    usage(("unknown engine: " + opt.engine).c_str());
  opt.probe = args.has("probe");
  if (opt.probe && opt.engine != "auto")
    usage("--probe applies to --engine auto only");
  opt.nonnegative = args.has("nonnegative");
  opt.memory_budget_bytes = static_cast<std::size_t>(
      args.get_num("mem-budget", 0) * 1024.0 * 1024.0);
  opt.verbose = args.has("verbose");
  opt.reporter = reporter.get();
  if (!history_dir.empty()) {
    opt.history = &history;
    opt.use_history = !args.has("no-history");
  }

  const std::string algorithm = args.get("algorithm", "als");
  if (algorithm != "als" && algorithm != "mu")
    usage(("unknown --algorithm: " + algorithm).c_str());
  const int restarts = static_cast<int>(args.get_num("restarts", 1));
  if (restarts > 1 && algorithm == "mu")
    usage("--restarts applies to --algorithm als only");

  // Liveness + crash forensics: a stall watchdog for the run (--watchdog-s),
  // a cooperative wall-clock timeout (--timeout-s), and process-wide signal
  // handlers that dump the flight recorder into --crash-dir on a fatal
  // signal. All argument validation happens above this point — usage() exits
  // without running the uninstall guard.
  const std::string crash_dir = args.get("crash-dir", ".");
  opt.watchdog.deadline_seconds = args.get_num("watchdog-s", 0);
  opt.watchdog.dump_dir = crash_dir;
  if (args.has("watchdog-policy") &&
      !obs::watchdog_policy_from_name(args.get("watchdog-policy"),
                                      opt.watchdog.policy))
    usage("bad --watchdog-policy (report|cancel|abort)");
  std::atomic<bool> cancel_flag{false};
  opt.cancel = &cancel_flag;
  std::unique_ptr<obs::CancelTimer> timeout;
  if (args.get_num("timeout-s", 0) > 0)
    timeout = std::make_unique<obs::CancelTimer>(args.get_num("timeout-s", 0),
                                                 &cancel_flag);
  struct CrashInstallGuard {
    ~CrashInstallGuard() { obs::crash_handlers_uninstall(); }
  } crash_guard;
  if (!obs::crash_handlers_install(crash_dir))
    std::fprintf(stderr,
                 "warning: cannot pre-open crash dump in %s; signal "
                 "forensics disabled\n",
                 crash_dir.c_str());

  // Runs the tuner could consult (cp_als and cp_mu record this run into the
  // store afterwards, so the size is captured before).
  const std::size_t prior_runs = history.size();
  CpAlsResult result;
  if (algorithm == "mu") {
    result = cp_mu(t, opt);
  } else {
    result = restarts > 1 ? cp_als_best_of(t, opt, restarts) : cp_als(t, opt);
  }

  std::printf("engine: %s\n", result.engine_name.c_str());
  std::printf("iterations: %d (%s)\n", result.iterations,
              result.converged
                  ? "converged"
                  : (result.cancelled ? "cancelled" : "max-iters"));
  if (result.watchdog_fired)
    std::printf("watchdog: fired, dump %s\n",
                result.watchdog_dump_path.c_str());
  std::printf("final fit: %.6f\n", static_cast<double>(result.final_fit()));
  std::printf("time: total %.3fs  mttkrp %.3fs  dense %.3fs (hadamard %.3fs "
              "solve %.3fs normalize %.3fs gram %.3fs)  fit %.3fs\n",
              result.total_seconds, result.mttkrp_seconds,
              result.dense_seconds, result.hadamard_seconds,
              result.solve_seconds, result.normalize_seconds,
              result.gram_seconds, result.fit_seconds);
  // peak-scratch is the workspace high-water mark carried over (not
  // subtracted) by KernelStats::since — a process-lifetime bound, so with a
  // reused engine it may predate this run.
  std::printf("kernel: symbolic %.3fs  numeric %.3fs  flops %llu  "
              "peak-scratch %zu B (%.2f MiB)\n",
              result.kernel_stats.symbolic_seconds,
              result.kernel_stats.numeric_seconds,
              static_cast<unsigned long long>(result.kernel_stats.flops),
              result.kernel_stats.peak_scratch_bytes,
              static_cast<double>(result.kernel_stats.peak_scratch_bytes) /
                  (1024.0 * 1024.0));
  std::printf("memory: engine peak %zu B (%.2f MiB)\n",
              result.engine_peak_memory_bytes,
              static_cast<double>(result.engine_peak_memory_bytes) /
                  (1024.0 * 1024.0));
  if (result.kernel_stats.degradations > 0) {
    std::printf("degradations: %llu (last: %s)\n",
                static_cast<unsigned long long>(
                    result.kernel_stats.degradations),
                result.kernel_stats.last_degradation_reason[0] != '\0'
                    ? result.kernel_stats.last_degradation_reason
                    : "?");
  }
  if (result.recoveries > 0 || result.ridge_retries > 0 ||
      result.pseudo_inverse_solves > 0) {
    std::printf("recovery: restarts %d  ridge-retries %d  pinv-solves %d\n",
                result.recoveries, result.ridge_retries,
                result.pseudo_inverse_solves);
  }
  if (result.predicted_seconds_per_iteration > 0 && result.iterations > 0) {
    const double measured =
        result.mttkrp_seconds / static_cast<double>(result.iterations);
    std::printf("tuner: predicted %.4gs/iter  measured %.4gs/iter  "
                "(x%.2f)  predicted-mem %zu B\n",
                result.predicted_seconds_per_iteration, measured,
                measured > 0 ? result.predicted_seconds_per_iteration / measured
                             : 0.0,
                result.predicted_memory_bytes);
  }
  // "history" here means the measured-best plan from --history-dir overrode
  // the analytic ranking (the CI smoke job greps for source=history).
  std::printf("plan: source=%s history-runs=%zu\n", result.plan_source.c_str(),
              prior_runs);

  const std::string prefix = args.get("out-prefix");
  if (!prefix.empty()) {
    {
      std::ofstream os(prefix + ".lambda");
      os.precision(17);
      for (real_t w : result.model.weights) os << w << '\n';
    }
    for (mdcp::mode_t m = 0; m < t.order(); ++m)
      write_factor(prefix + ".U" + std::to_string(m),
                   result.model.factors[m]);
    std::printf("wrote %s.lambda and %s.U0..U%u\n", prefix.c_str(),
                prefix.c_str(), t.order() - 1);
  }

  if (!trace_path.empty()) {
    obs::Tracer::instance().set_enabled(false);
    if (obs::Tracer::instance().write_chrome_json(trace_path)) {
      std::printf("wrote trace %s (%llu events, %llu dropped)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(
                      obs::Tracer::instance().retained_events()),
                  static_cast<unsigned long long>(
                      obs::Tracer::instance().dropped_events()));
    } else {
      std::fprintf(stderr, "error: cannot write --trace %s\n",
                   trace_path.c_str());
      return 2;
    }
  }
  const std::string metrics_path = args.get("metrics");
  if (!metrics_path.empty()) {
    if (obs::MetricsRegistry::instance().write_json(metrics_path)) {
      std::printf("wrote metrics %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write --metrics %s\n",
                   metrics_path.c_str());
      return 2;
    }
  }
  if (reporter != nullptr) {
    // Promote <path>.tmp → <path>; until this succeeds the history store
    // cannot see the run.
    if (!reporter->close()) {
      std::fprintf(stderr, "error: cannot finalize --report %s\n",
                   reporter->path().c_str());
      return 2;
    }
    std::printf("wrote report %s\n", reporter->path().c_str());
  }
  return 0;
}

std::string fmt_secs(double s) {
  char buf[32];
  if (s < 1e-3)
    std::snprintf(buf, sizeof(buf), "%.3gus", s * 1e6);
  else if (s < 1.0)
    std::snprintf(buf, sizeof(buf), "%.4gms", s * 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.4gs", s);
  return buf;
}

// One measured (engine, mode) pair for `profile`.
struct ProfileRow {
  std::string engine;
  mdcp::mode_t mode = 0;
  double seconds = 0;
  double flops = 0;
  std::uint32_t tile = 0;     // microkernel tile width (0 = scalar)
  tools::RusageDelta rusage;  // this process over the timed reps
  obs::RooflineAttribution attr;
};

int cmd_profile(const Args& args) {
  if (args.has("threads"))
    set_num_threads(static_cast<int>(args.get_num("threads", 1)));
  const bool json = args.has("json");

  const double calib_budget = args.get_num("calib-seconds", 0.3);
  const obs::RooflineCeilings ceilings = obs::calibrate_roofline(calib_budget);
  if (!json) {
    std::printf("ceilings: %.2f GFLOP/s (fma), %.2f GB/s (triad), "
                "ridge %.2f flop/B, %d thread(s), calibrated in %.2fs\n",
                ceilings.fma_gflops, ceilings.triad_gbps,
                ceilings.ridge_intensity(), ceilings.threads,
                ceilings.calibration_seconds);
  }

  CooTensor t;
  std::string dataset_name;
  if (!args.positional().empty()) {
    dataset_name = args.positional()[0];
    t = read_input(args, dataset_name);
  } else {
    dataset_name = "synthetic-zipf4d";
    t = generate_zipf({500, 20000, 80000, 30000},
                      static_cast<nnz_t>(args.get_num("nnz", 120000)), 1.1,
                      static_cast<std::uint64_t>(args.get_num("seed", 7)));
  }
  if (!json) std::printf("dataset: %s %s\n", dataset_name.c_str(),
                         t.summary().c_str());

  const auto rank = static_cast<index_t>(args.get_num("rank", 16));
  const int reps = std::max(1, static_cast<int>(args.get_num("reps", 3)));
  Rng rng(static_cast<std::uint64_t>(args.get_num("seed", 7)));
  std::vector<Matrix> factors;
  for (mdcp::mode_t m = 0; m < t.order(); ++m)
    factors.push_back(Matrix::random_uniform(t.dim(m), rank, rng));

  std::vector<std::string> engines;
  const std::string engines_arg = args.get("engines");
  if (engines_arg.empty()) {
    engines = EngineRegistry::instance().names();
  } else {
    std::size_t pos = 0;
    while (pos <= engines_arg.size()) {
      const std::size_t next = engines_arg.find(',', pos);
      const std::string name = engines_arg.substr(
          pos, next == std::string::npos ? std::string::npos : next - pos);
      if (!name.empty()) {
        if (!EngineRegistry::instance().contains(name))
          usage(("unknown engine: " + name).c_str());
        engines.push_back(name);
      }
      if (next == std::string::npos) break;
      pos = next + 1;
    }
    if (engines.empty()) usage("--engines lists no engine");
  }

  std::vector<ProfileRow> rows;
  for (const auto& name : engines) {
    auto engine = make_engine(name, t, rank);
    // Warm-up sweep: first-touch of memoized structures and scratch.
    for (mdcp::mode_t m = 0; m < t.order(); ++m) {
      Matrix out;
      engine->compute(m, factors, out);
      engine->factor_updated(m);
    }
    for (mdcp::mode_t m = 0; m < t.order(); ++m) {
      ProfileRow row;
      row.engine = name;
      row.mode = m;
      const KernelStats before_stats = engine->stats();
#if defined(__unix__) || defined(__APPLE__)
      const rusage ru_before = tools::rusage_now(RUSAGE_SELF);
#endif
      WallTimer timer;
      for (int rep = 0; rep < reps; ++rep) {
        Matrix out;
        engine->compute(m, factors, out);
      }
      row.seconds = timer.seconds();
#if defined(__unix__) || defined(__APPLE__)
      row.rusage = tools::rusage_since(RUSAGE_SELF, ru_before);
#endif
      const KernelStats delta = engine->stats().since(before_stats);
      row.flops = static_cast<double>(delta.flops);
      row.tile = delta.last_tile;
      row.attr = attribute_roofline({row.seconds, row.flops}, ceilings);
      rows.push_back(std::move(row));
      // A fresh compute of the same mode must not reuse the previous rep's
      // memoized state for the *next* mode's timing to be comparable.
      engine->factor_updated(m);
    }
  }

  if (json || args.has("out")) {
    obs::JsonWriter w;
    w.begin_object().kv("schema", "mdcp-roofline/2");
    const auto& b = obs::BuildInfo::current();
    w.key("build").begin_object()
        .kv("compiler", b.compiler)
        .kv("build_type", b.build_type)
        .kv("openmp", b.openmp)
        .end_object();
    w.key("ceilings").begin_object()
        .kv("fma_gflops", ceilings.fma_gflops)
        .kv("triad_gbps", ceilings.triad_gbps)
        .kv("ridge_intensity", ceilings.ridge_intensity())
        .kv("threads", ceilings.threads)
        .kv("calibration_seconds", ceilings.calibration_seconds)
        .end_object();
    w.key("dataset").begin_object().kv("name", dataset_name);
    w.key("shape").begin_array();
    for (mdcp::mode_t m = 0; m < t.order(); ++m)
      w.value(static_cast<std::uint64_t>(t.dim(m)));
    w.end_array().kv("nnz", static_cast<std::uint64_t>(t.nnz())).end_object();
    w.kv("rank", static_cast<std::uint64_t>(rank))
        .kv("reps", reps)
        .kv("threads", num_threads());
    w.key("engines").begin_array();
    std::string current;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ProfileRow& row = rows[i];
      if (row.engine != current) {
        if (!current.empty()) w.end_array().end_object();
        current = row.engine;
        w.begin_object().kv("engine", row.engine).key("modes").begin_array();
      }
      w.begin_object()
          .kv("mode", static_cast<std::uint64_t>(row.mode))
          .kv("seconds", row.seconds)
          .kv("flops", row.flops)
          .kv("tile", static_cast<std::uint64_t>(row.tile))
          .kv("gflops", row.attr.gflops)
          .kv("pct_compute", row.attr.pct_compute);
      if (row.rusage.valid) {
        w.key("rusage").begin_object()
            .kv("user_seconds", row.rusage.user_seconds)
            .kv("system_seconds", row.rusage.system_seconds)
            .kv("page_faults",
                static_cast<std::int64_t>(row.rusage.page_faults))
            .end_object();
      }
      w.end_object();
    }
    if (!current.empty()) w.end_array().end_object();
    w.end_array().end_object();

    const std::string out_path = args.get("out");
    if (!out_path.empty()) {
      std::ofstream os(out_path);
      if (!os.good()) {
        std::fprintf(stderr, "error: cannot write --out %s\n",
                     out_path.c_str());
        return 2;
      }
      os << w.str() << '\n';
      if (!json) std::printf("wrote %s\n", out_path.c_str());
    }
    if (json) std::printf("%s\n", w.str().c_str());
  }

  if (!json) {
    std::printf("\n%-12s %-5s %-5s %-10s %-9s %-7s %-10s %-10s %s\n",
                "engine", "mode", "tile", "time", "gflops", "%fma", "user",
                "sys", "faults");
    for (const ProfileRow& row : rows) {
      std::printf("%-12s %-5u %-5u %-10s %-9.3f %-7.2f %-10s %-10s %ld\n",
                  row.engine.c_str(), row.mode, row.tile,
                  fmt_secs(row.seconds).c_str(), row.attr.gflops,
                  row.attr.pct_compute,
                  fmt_secs(row.rusage.user_seconds).c_str(),
                  fmt_secs(row.rusage.system_seconds).c_str(),
                  row.rusage.page_faults);
    }
  }
  return 0;
}

int cmd_history(const Args& args) {
  if (args.positional().empty()) usage("history needs a report directory");
  const std::string dir = args.positional()[0];
  obs::HistoryStore store;
  const obs::HistoryIngestStats st = store.ingest_dir(dir);
  const auto groups = store.groups();

  if (args.has("json")) {
    obs::JsonWriter w;
    w.begin_object().kv("schema", "mdcp-history/1").kv("dir", dir);
    w.key("ingest")
        .begin_object()
        .kv("files_scanned", static_cast<std::uint64_t>(st.files_scanned))
        .kv("files_ingested", static_cast<std::uint64_t>(st.files_ingested))
        .kv("files_unparseable",
            static_cast<std::uint64_t>(st.files_unparseable))
        .kv("files_unknown_version",
            static_cast<std::uint64_t>(st.files_unknown_version))
        .kv("files_incomplete", static_cast<std::uint64_t>(st.files_incomplete))
        .kv("files_orphaned_tmp",
            static_cast<std::uint64_t>(st.files_orphaned_tmp))
        .end_object();
    w.key("groups").begin_array();
    for (const auto& g : groups) {
      char fp[24];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(g.fingerprint));
      w.begin_object()
          .kv("fingerprint", fp)
          .kv("engine", g.engine_label)
          .kv("rank", static_cast<std::uint64_t>(g.rank))
          .kv("runs", static_cast<std::uint64_t>(g.runs))
          .kv("aborted_runs", static_cast<std::uint64_t>(g.aborted_runs))
          .kv("mean_seconds_per_iter", g.mean_seconds_per_iteration)
          .kv("min_seconds_per_iter", g.min_seconds_per_iteration)
          .kv("max_seconds_per_iter", g.max_seconds_per_iteration)
          .kv("mean_time_error_ratio", g.mean_time_error_ratio)
          .kv("last_plan_source", g.last_plan_source)
          .end_object();
    }
    w.end_array().end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("history %s: %zu run(s) from %zu file(s) "
              "(scanned %zu, skipped: %zu unparseable, %zu unknown-version, "
              "%zu incomplete, %zu orphaned .tmp)\n",
              dir.c_str(), store.size(), st.files_ingested, st.files_scanned,
              st.files_unparseable, st.files_unknown_version,
              st.files_incomplete, st.files_orphaned_tmp);
  if (st.files_orphaned_tmp > 0)
    std::printf("note: %zu orphaned .tmp report(s) — runs that died before "
                "finalizing (crash without handlers, or kill -9)\n",
                st.files_orphaned_tmp);
  if (groups.empty()) return 0;
  std::printf("%-18s %-18s %-5s %-5s %-5s %-10s %-10s %-10s %-9s %s\n",
              "fingerprint", "engine", "rank", "runs", "abrt", "mean", "min",
              "max", "err-ratio", "last-source");
  for (const auto& g : groups) {
    std::printf("%016llx   %-18s %-5u %-5zu %-5zu %-10s %-10s %-10s %-9.2f %s\n",
                static_cast<unsigned long long>(g.fingerprint),
                g.engine_label.c_str(), g.rank, g.runs, g.aborted_runs,
                fmt_secs(g.mean_seconds_per_iteration).c_str(),
                fmt_secs(g.min_seconds_per_iteration).c_str(),
                fmt_secs(g.max_seconds_per_iteration).c_str(),
                g.mean_time_error_ratio,
                g.last_plan_source.empty() ? "?" : g.last_plan_source.c_str());
  }
  return 0;
}

// Renders a `mdcp-crash-dump/1` JSONL dump (watchdog firing or fatal-signal
// handler) into per-thread timelines and a likely-stalled-phase verdict.
// Exit 0 for any parseable dump — including truncated ones, which are the
// norm for real crashes — and 2 only when no crash header can be found.
int cmd_postmortem(const Args& args) {
  if (args.positional().empty()) usage("postmortem needs a crash dump file");
  const std::string path = args.positional()[0];
  obs::CrashDumpAnalysis a;
  std::string err;
  if (!obs::analyze_crash_dump(path, a, &err)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  std::size_t max_events = static_cast<std::size_t>(args.get_num("events", 8));
  if (max_events == 0) max_events = 8;

  // Last `max_events` ring entries per thread, oldest-first within each.
  std::map<std::uint32_t, std::vector<const obs::CrashEvent*>> tail_by_tid;
  for (const auto& e : a.events) {
    auto& v = tail_by_tid[e.tid];
    v.push_back(&e);
    if (v.size() > max_events) v.erase(v.begin());
  }

  const auto age_seconds = [&](std::uint64_t ts_ns) {
    return a.now_ns >= ts_ns
               ? static_cast<double>(a.now_ns - ts_ns) / 1e9
               : 0.0;
  };

  if (args.has("json")) {
    obs::JsonWriter w;
    w.begin_object()
        .kv("schema", "mdcp-postmortem/1")
        .kv("dump", path)
        .kv("cause", a.cause)
        .kv("signal", a.signal)
        .kv("pid", a.pid)
        .kv("host", a.host)
        .kv("now_ns", a.now_ns)
        .kv("complete", a.complete)
        .kv("truncated_lines", static_cast<std::uint64_t>(a.truncated_lines));
    w.key("threads").begin_array();
    for (const auto& t : a.threads) {
      w.begin_object()
          .kv("tid", static_cast<std::uint64_t>(t.tid))
          .kv("epoch", t.epoch)
          .kv("age_ns", t.age_ns)
          .kv("phase", t.phase)
          .kv("detail", t.detail)
          .end_object();
    }
    w.end_array();
    w.key("events").begin_array();
    for (const auto& [tid, tail] : tail_by_tid) {
      for (const auto* e : tail) {
        w.begin_object()
            .kv("tid", static_cast<std::uint64_t>(tid))
            .kv("seq", e->seq)
            .kv("age_seconds", age_seconds(e->ts_ns))
            .kv("kind", e->kind)
            .kv("phase", e->phase)
            .kv("a", e->a)
            .kv("b", e->b)
            .end_object();
      }
    }
    w.end_array();
    if (a.has_kernel_stats) {
      w.key("kernel")
          .begin_object()
          .kv("compute_calls", a.compute_calls)
          .kv("degradations", a.degradations)
          .end_object();
    }
    w.key("counters").begin_array();
    for (const auto& [name, value] : a.counters)
      w.begin_object().kv("name", name).kv("value", value).end_object();
    w.end_array();
    w.key("verdict").begin_object().kv("available", a.has_verdict);
    if (a.has_verdict) {
      w.kv("tid", static_cast<std::uint64_t>(a.verdict_tid))
          .kv("phase", a.verdict_phase)
          .kv("detail", a.verdict_detail)
          .kv("quiet_seconds", static_cast<double>(a.verdict_age_ns) / 1e9);
    }
    w.end_object().end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("postmortem: %s\n", path.c_str());
  if (a.signal != 0)
    std::printf("cause: %s (signal %d)  pid %lld  host %s\n", a.cause.c_str(),
                a.signal, static_cast<long long>(a.pid), a.host.c_str());
  else
    std::printf("cause: %s  pid %lld  host %s\n", a.cause.c_str(),
                static_cast<long long>(a.pid), a.host.c_str());
  std::printf("dump: %s (%zu unparseable line(s))\n",
              a.complete ? "complete" : "TRUNCATED", a.truncated_lines);
  if (a.has_kernel_stats)
    std::printf("kernel: %llu compute call(s), %llu degradation(s)\n",
                static_cast<unsigned long long>(a.compute_calls),
                static_cast<unsigned long long>(a.degradations));

  std::printf("threads (%zu):\n", a.threads.size());
  for (const auto& t : a.threads) {
    std::printf("  tid %-3u phase %-12s detail %-6lld epoch %-8llu "
                "quiet %.3fs\n",
                t.tid, t.phase.c_str(), static_cast<long long>(t.detail),
                static_cast<unsigned long long>(t.epoch),
                static_cast<double>(t.age_ns) / 1e9);
  }

  std::printf("events (last %zu per thread, oldest first):\n", max_events);
  for (const auto& [tid, tail] : tail_by_tid) {
    std::printf("  tid %u:\n", tid);
    for (const auto* e : tail) {
      std::printf("    [seq %llu] -%.3fs %-13s phase=%-12s a=%lld b=%lld\n",
                  static_cast<unsigned long long>(e->seq),
                  age_seconds(e->ts_ns), e->kind.c_str(), e->phase.c_str(),
                  static_cast<long long>(e->a), static_cast<long long>(e->b));
    }
  }

  if (a.has_verdict) {
    std::printf("verdict: likely stalled in phase '%s' (detail %lld), "
                "tid %u, quiet %.3fs before the dump\n",
                a.verdict_phase.c_str(),
                static_cast<long long>(a.verdict_detail), a.verdict_tid,
                static_cast<double>(a.verdict_age_ns) / 1e9);
  } else {
    std::printf("verdict: no heartbeat data — cannot attribute the stall\n");
  }
  return 0;
}

// Bands each kernel of NEW against BASE as a one-run history, with the
// drift detector's rule (obs::band_kernels). Exit 2 when the two runs are not
// comparable: another tensor, plan or mode count.
int cmd_compare(const Args& args) {
  if (args.positional().size() < 2)
    usage("compare needs <base.jsonl> and <new.jsonl>");
  const std::string base_path = args.positional()[0];
  const std::string new_path = args.positional()[1];
  const double threshold = args.get_num("threshold", 0.25);
  if (threshold <= 0) usage("--threshold must be positive");

  const auto base = obs::HistoryStore::parse_report_file(base_path);
  const auto next = obs::HistoryStore::parse_report_file(new_path);
  if (!base || !next) {
    std::fprintf(stderr, "error: cannot parse %s\n",
                 (!base ? base_path : new_path).c_str());
    return 2;
  }

  std::vector<obs::Finding> findings;
  if (base->fingerprint != next->fingerprint)
    findings.push_back(tools::mismatch("header/fingerprint"));
  // Different plans are a provenance change, not a timing regression.
  if (base->engine_label != next->engine_label)
    findings.push_back(tools::mismatch("summary/engine"));
  if (base->mode_seconds.size() != next->mode_seconds.size())
    findings.push_back(tools::mismatch("summary/mttkrp_mode_seconds"));
  for (obs::Finding& f :
       obs::band_kernels({&*base}, *next, threshold).findings)
    findings.push_back(std::move(f));

  obs::JsonWriter w;
  if (args.has("json"))
    w.begin_object()
        .kv("schema", "mdcp-report-diff/2")
        .kv("base", base_path)
        .kv("new", new_path);
  return tools::print_findings("compare: " + base_path + " vs " + new_path,
                               threshold, findings,
                               args.has("json") ? &w : nullptr);
}

int cmd_drift(const Args& args) {
  if (args.positional().empty()) usage("drift needs a report file");
  const std::string report_path = args.positional()[0];
  const std::string dir = args.get("history-dir");
  if (dir.empty()) usage("drift needs --history-dir");
  const double threshold = args.get_num("threshold", obs::kDriftThreshold);
  if (threshold <= 0) usage("--threshold must be positive");

  const auto run = obs::HistoryStore::parse_report_file(report_path);
  if (!run) {
    std::fprintf(stderr, "error: cannot parse %s\n", report_path.c_str());
    return 2;
  }
  obs::HistoryStore store;
  // The report under test must not band against itself.
  store.ingest_dir(dir, {report_path});
  const obs::DriftReport dr = detect_drift(store, *run, threshold);

  obs::JsonWriter w;
  if (args.has("json")) {
    w.begin_object()
        .kv("schema", "mdcp-drift/2")
        .kv("report", report_path)
        .kv("history_dir", dir)
        .kv("history_runs", static_cast<std::uint64_t>(dr.history_runs));
  } else if (dr.history_runs < 2) {
    std::printf("insufficient history: need >= 2 comparable runs in %s, "
                "found %zu\n",
                dir.c_str(), dr.history_runs);
  }
  return tools::print_findings(
      "drift: " + report_path + " (engine " + run->engine_label + ") vs " +
          std::to_string(dr.history_runs) + " comparable run(s) in " + dir,
      threshold, dr.findings, args.has("json") ? &w : nullptr);
}

// Each subcommand and every flag it reads (read_input's --no-strict
// included), split into flags that take a value and switches that take none.
struct Subcommand {
  const char* name;
  int (*run)(const Args&);
  std::initializer_list<const char*> flags;
  std::initializer_list<const char*> switches;
};

const Subcommand kSubcommands[] = {
    {"info", cmd_info, {}, {"json"}},
    {"stats", cmd_stats, {}, {"no-strict"}},
    {"generate", cmd_generate,
     {"kind", "shape", "nnz", "seed", "zipf-exp", "clusters", "out"}, {}},
    {"tune", cmd_tune, {"rank", "mem-budget"}, {"probe", "no-strict"}},
    {"decompose", cmd_decompose,
     {"rank", "engine", "iters", "tol", "seed", "restarts", "algorithm",
      "threads", "mem-budget", "out-prefix", "trace", "metrics", "report",
      "history-dir", "watchdog-s", "watchdog-policy", "timeout-s",
      "crash-dir"},
     {"nonnegative", "no-strict", "verbose", "no-history", "probe"}},
    {"profile", cmd_profile,
     {"rank", "engines", "reps", "threads", "calib-seconds", "nnz", "seed",
      "out"},
     {"json", "no-strict"}},
    {"history", cmd_history, {}, {"json"}},
    {"compare", cmd_compare, {"threshold"}, {"json"}},
    {"drift", cmd_drift, {"history-dir", "threshold"}, {"json"}},
    {"postmortem", cmd_postmortem, {"events"}, {"json"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    for (const Subcommand& sub : kSubcommands) {
      if (cmd == sub.name)
        return sub.run(Args(argc, argv, 2, cmd, sub.flags, sub.switches));
    }
    usage(("unknown command: " + cmd).c_str());
  } catch (const mdcp::error& e) {
    std::fprintf(stderr, "mdcp error: %s\n", e.what());
    return 2;
  }
}
