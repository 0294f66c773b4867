// Machine-readable run reporting (JSONL) with build provenance.
//
// A run report is a stream of newline-delimited JSON records:
//
//   {"type":"header", ...}      build + dataset provenance (who/what/where)
//   {"type":"iteration", ...}   one record per CP-ALS iteration (written by
//                               cp_als when CpAlsOptions::reporter is set)
//   {"type":"summary", ...}     end-of-run totals, tuner prediction error,
//                               per-thread workspace peaks
//
// Every record carries "schema":"mdcp-run-report/1" so downstream tooling
// can detect format drift. The header pins the run to a reproducible state:
// compiler + flags + build type, OpenMP and tracing configuration, thread
// counts, and the dataset's shape/nnz plus a content fingerprint.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "tensor/coo_tensor.hpp"

namespace mdcp::obs {

/// Schema tag stamped on every report record.
inline constexpr const char* kReportSchema = "mdcp-run-report/1";

/// Report format version, stamped into the provenance header as
/// "report_version". Bump when the record layout changes in a way consumers
/// (the history store) must know about; the history ingester skips files
/// newer than the version it was built with. Version 1 = pre-versioned
/// reports (no report_version / host / rank / plan_source fields).
inline constexpr int kReportVersion = 2;

/// Compile-time / process-wide provenance, resolved once.
struct BuildInfo {
  std::string compiler;    ///< e.g. "gcc 13.2.0"
  std::string flags;       ///< CMAKE_CXX_FLAGS + build-type flags
  std::string build_type;  ///< e.g. "Release"
  bool openmp = false;
  int openmp_version = 0;  ///< _OPENMP date macro, 0 without OpenMP
  bool tracing = false;    ///< MDCP_ENABLE_TRACING compiled in
  std::string kernel_isa;  ///< kernel variant picked at load: "baseline" or
                           ///< "avx2" (util/isa.hpp)
  unsigned hardware_threads = 0;
  std::string host;        ///< gethostname() ("unknown-host" if unavailable)

  static const BuildInfo& current();
};

/// FNV-1a content hash over shape, coordinates, and values. Stable across
/// runs for identical tensors; used to pin a report to its dataset.
std::uint64_t tensor_fingerprint(const CooTensor& tensor);

/// Writes JSONL records crash-safely: all lines go to `<path>.tmp` (flushed
/// per line) and the file is atomically renamed to `path` on close(). A run
/// killed mid-write therefore never leaves a truncated report at `path` to
/// poison the history store — only a `.tmp` leftover, which ingestion
/// ignores. The destructor closes implicitly; call close() explicitly to
/// check for rename failure.
class RunReporter {
 public:
  explicit RunReporter(const std::string& path);
  ~RunReporter();
  RunReporter(const RunReporter&) = delete;
  RunReporter& operator=(const RunReporter&) = delete;

  /// False if the output file could not be opened.
  bool ok() const noexcept { return os_.good(); }

  /// Writes one pre-serialized JSON object as a line.
  void write_line(const std::string& json);

  /// Writes the provenance header: BuildInfo + `command` + dataset identity.
  void write_header(const CooTensor& tensor, const std::string& command,
                    int kernel_threads);

  /// Finishes the report: flushes and renames `<path>.tmp` → `path`. False
  /// if the stream went bad or the rename failed. Idempotent.
  bool close();

  /// The final (post-rename) report path.
  const std::string& path() const noexcept { return path_; }

  /// The in-flight `<path>.tmp` the lines are streamed to before close().
  /// Exposed so crash forensics (obs/watchdog.hpp) can pre-open it and
  /// promote it with an `aborted` summary if the process dies mid-run.
  const std::string& tmp_path() const noexcept { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream os_;
  bool closed_ = false;
};

}  // namespace mdcp::obs
