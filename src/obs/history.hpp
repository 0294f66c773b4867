// Persistent cross-run history: ingest JSONL run reports, index measured
// timings by tensor fingerprint + provenance, and answer the two questions
// the rest of the system asks:
//
//   * tuner feedback — "which runs of this (fingerprint, rank) are there?"
//     (see query; select_strategy keeps those of this thread count, build
//     and machine and takes the fastest candidate among them)
//   * drift analytics — "is this run's per-kernel timing inside the robust
//     z-score band of the stored history?" (see detect_drift, consumed by
//     `mdcp_cli drift`). Its band() is the only comparison rule: `mdcp_cli
//     compare` and bench_diff call it too.
//
// The store's on-disk format IS the run-report directory: every
// `mdcp_cli decompose --history-dir <d>` appends one `run-*.jsonl` report
// (written crash-safely, see RunReporter), and ingest_dir() re-reads them
// all. There is no secondary database to corrupt or migrate — deleting a
// file forgets that run, and unparseable / unknown-version files are skipped
// and counted, never fatal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mdcp::obs {

/// One run's worth of measured history, extracted from a report's header +
/// summary records (or recorded in-process by cp_als when
/// CpAlsOptions::history is set).
struct RunObservation {
  std::uint64_t fingerprint = 0;  ///< tensor_fingerprint from the header
  std::string engine_label;       ///< summary "engine", e.g. "auto:bdt/asc"
  /// engine_label with the "auto:" prefix stripped — the name the tuner's
  /// candidate strategies are matched against ("bdt/asc", "greedy", ...;
  /// fixed engines keep their registry name).
  std::string strategy;
  std::uint32_t rank = 0;  ///< 0 when the report predates the rank field
  int threads = 0;         ///< kernel_threads from the header

  // Provenance the tuner's overlay matches exactly (see select_strategy).
  std::uint64_t build_id = 0;    ///< hash of compiler + flags + build type
  std::uint64_t machine_id = 0;  ///< hash of host name + hardware threads

  int iterations = 0;
  double seconds_per_iteration = 0;  ///< MTTKRP seconds / iterations
  /// Per-mode MTTKRP seconds of the run's fastest iteration, mode by mode
  /// (the "per-kernel timings" the drift detector bands): a descheduling
  /// only adds time, so one slow iteration does not move it. A report with
  /// no iteration records gives the summary's per-iteration mean instead.
  /// Empty when the report has neither.
  std::vector<double> mode_seconds;
  double time_error_ratio = 0;  ///< tuner predicted/measured (0 = unknown)
  double final_fit = 0;
  std::string plan_source;  ///< "model" | "history" | "fixed" ("" = unknown)
  std::string source_file;  ///< report path ("" = recorded in-process)
  /// True when the summary record was written by the crash handler
  /// ("aborted":true): the run died mid-flight. Counted per group but never
  /// fed into timing statistics (iterations is 0 on such records).
  bool aborted = false;
};

/// Ingest bookkeeping. Skips are counted, never thrown: a poisoned file in a
/// shared history directory must not take down every later run.
struct HistoryIngestStats {
  std::size_t files_scanned = 0;
  std::size_t files_ingested = 0;
  std::size_t files_unparseable = 0;      ///< bad JSON / truncated mid-record
  std::size_t files_unknown_version = 0;  ///< report_version > kReportVersion
  std::size_t files_incomplete = 0;       ///< missing header or summary
  /// `*.tmp` leftovers from runs that died before RunReporter::close() could
  /// rename them (and before any crash handler promoted them). They carry no
  /// summary and are never ingested, but they are evidence of crashed runs —
  /// surfaced here (and by `mdcp_cli history`) instead of silently skipped.
  std::size_t files_orphaned_tmp = 0;
};

/// band() flags a value whose robust z-score is beyond ±kBandSigma.
inline constexpr double kBandSigma = 3.5;
/// `mdcp_cli drift`'s default threshold: a floor of 12% of the median.
inline constexpr double kDriftThreshold = 0.42;

struct Finding {
  /// What was measured: "mode0", ..., "mttkrp", or a bench_diff cell path.
  std::string kernel;
  double measured = 0;
  double median = 0;  ///< of the samples (the base value when there is one)
  double scale = 0;   ///< robust scale the z-score used
  double z = 0;       ///< signed robust z-score
  /// "regression" (slow side, gates the exit status), "improved" (fast
  /// side, informational) or "ok"; the tools add "structural".
  const char* status = "ok";
};

/// The one comparison rule, of detect_drift, `mdcp_cli compare` and
/// bench_diff. Bands `measured` against `samples` (not empty, positive;
/// smaller is better): z = (measured − median) / scale, scale =
/// max(1.4826·MAD, (threshold / kBandSigma)·median). The MAD term adapts to
/// noisy kernels; the floor keeps near-deterministic samples (MAD ≈ 0) from
/// flagging jitter. One sample has MAD 0: the band is measured >
/// base·(1 + threshold).
Finding band(std::vector<double> samples, double measured, double threshold);

struct DriftReport {
  std::vector<Finding> findings;  ///< one per banded kernel
  std::size_t history_runs = 0;   ///< comparable observations found
  bool regressed = false;         ///< any slow-side finding
  bool out_of_band = false;       ///< any finding on either side
};

class HistoryStore {
 public:
  /// Provenance of the running process, for the tuner's overlay and for
  /// stamping in-process observations. Stable for the process lifetime.
  static std::uint64_t current_build_id();
  static std::uint64_t current_machine_id();

  /// Parses one JSONL run report into an observation. Returns nullopt (and
  /// bumps the matching `stats` skip counter) for unreadable, unparseable,
  /// future-version, or header/summary-less files.
  static std::optional<RunObservation> parse_report_file(
      const std::string& path, HistoryIngestStats* stats = nullptr);

  /// Ingests one report file; false if it was skipped.
  bool ingest_file(const std::string& path,
                   HistoryIngestStats* stats = nullptr);

  /// Ingests every "*.jsonl" in `dir` (non-recursive; "*.tmp" crash
  /// leftovers and files named in `exclude` are ignored). A missing
  /// directory ingests nothing and is not an error.
  HistoryIngestStats ingest_dir(const std::string& dir,
                                const std::vector<std::string>& exclude = {});

  /// Appends an in-process observation (cp_als records each run's outcome
  /// here so repeat runs inside one process warm-start without re-reading
  /// the directory).
  void record(RunObservation obs);

  std::size_t size() const noexcept { return observations_.size(); }
  bool empty() const noexcept { return observations_.empty(); }
  const std::vector<RunObservation>& observations() const noexcept {
    return observations_;
  }

  /// Observations matching (fingerprint, rank, strategy). rank 0 / empty
  /// strategy match any; rank-0 *observations* only match rank-0 queries
  /// (an unknown-rank measurement must not inform a rank-specific plan).
  std::vector<const RunObservation*> query(std::uint64_t fingerprint,
                                           std::uint32_t rank = 0,
                                           const std::string& strategy = {})
      const;

  /// Aggregate view for `mdcp_cli history`: one row per
  /// (fingerprint, engine label, rank).
  struct Group {
    std::uint64_t fingerprint = 0;
    std::string engine_label;
    std::uint32_t rank = 0;
    std::size_t runs = 0;          ///< completed runs (timing stats below)
    std::size_t aborted_runs = 0;  ///< crash-finalized runs (no timings)
    double mean_seconds_per_iteration = 0;
    double min_seconds_per_iteration = 0;
    double max_seconds_per_iteration = 0;
    double mean_time_error_ratio = 0;  ///< over runs that reported one
    std::string last_plan_source;
  };
  std::vector<Group> groups() const;

 private:
  std::vector<RunObservation> observations_;
};

/// Bands each kernel of `run` (mode0…N−1, then "mttkrp", their sum)
/// against the same kernel over `history`. A kernel with no positive sample
/// or under 1 µs is not banded.
DriftReport band_kernels(const std::vector<const RunObservation*>& history,
                         const RunObservation& run, double threshold);

/// band_kernels() over the store's observations with the same
/// (fingerprint, rank, strategy). With fewer than 2 comparable observations
/// the report is empty (history_runs tells the caller why).
DriftReport detect_drift(const HistoryStore& store, const RunObservation& run,
                         double threshold = kDriftThreshold);

/// Strips the "auto:" prefix an AutoEngine bakes into its resolved name
/// (and the "auto+probe:" of reports from older builds), yielding the
/// strategy name history keys on.
std::string strategy_from_engine_label(const std::string& label);

}  // namespace mdcp::obs
