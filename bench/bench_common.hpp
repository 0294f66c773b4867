// Shared infrastructure for the experiment benchmarks.
//
// Each bench binary regenerates one experiment of EXPERIMENTS.md. The suite
// runs on a standard battery of synthetic datasets (see DESIGN.md §4 for the
// substitution rationale) whose shapes/structures mirror the regimes of the
// sparse-CP literature's real datasets:
//
//   tags4d      — 4-mode Zipf (Delicious/Flickr-like tagging data)
//   kb3d        — 3-mode Zipf, one short mode (NELL-like knowledge base)
//   ratings3d   — 3-mode uniform with one long mode (Netflix-like)
//   ehr5d       — 5-mode clustered (CHOA-like EHR phenotyping data)
//   uniform4d   — 4-mode uniform (worst case: no index overlap)
//   clustered6d — 6-mode clustered (higher-order, strong overlap)
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "mdcp.hpp"

namespace mdcp::bench {

struct Dataset {
  std::string name;
  CooTensor tensor;
};

/// Parses shared bench flags. Call first in every bench main:
///   --json   emit tables as JSON objects on stdout (banners are suppressed;
///            use note() for human-only commentary)
/// Unknown flags are ignored so benches can add their own.
void init(int argc, char** argv);

/// True when --json was passed to init().
bool json_mode();

/// printf-style commentary that is dropped in --json mode (so stdout stays
/// machine-parseable).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Scale factor for dataset sizes (override with MDCP_BENCH_SCALE env var;
/// 1.0 ≈ a minute-scale full suite on one core).
double bench_scale();

/// The standard dataset battery (sizes multiplied by bench_scale()).
/// Every returned dataset is also recorded in the provenance registry (see
/// register_dataset), so --json tables are self-describing.
std::vector<Dataset> standard_datasets();

/// Identity of one benchmark dataset, embedded into --json table objects so
/// BENCH_*.json files can be compared across machines and scales.
struct DatasetInfo {
  shape_t shape;
  nnz_t nnz = 0;
  double density = 0;  ///< nnz / prod(shape)
};

/// Records `tensor` under `name` in the provenance registry. Benches that
/// build datasets outside standard_datasets() should call this so their
/// tables stay self-describing.
void register_dataset(const std::string& name, const CooTensor& tensor);

/// Name → identity for every dataset registered so far (insertion order).
const std::vector<std::pair<std::string, DatasetInfo>>& dataset_registry();

/// One engine per benchmark column, identified by its EngineRegistry name.
/// The column list is derived from the registry, so engines registered at
/// runtime appear in the tables automatically.
struct EngineColumn {
  std::string label;   ///< table header
  std::string engine;  ///< EngineRegistry name
};
std::vector<EngineColumn> engine_columns();

/// Creates and prepares the column's engine for `tensor` at `rank`.
std::unique_ptr<MttkrpEngine> make_column_engine(const EngineColumn& col,
                                                 const CooTensor& tensor,
                                                 index_t rank,
                                                 KernelContext ctx = {});

/// Minimum wall-time (seconds) over `reps` full MTTKRP sweeps (all N modes)
/// with the CP-ALS invalidation schedule (factor_updated after each mode).
/// Minimum, not median: on a shared host the minimum is the least-noisy
/// estimator of the kernel's intrinsic cost.
double time_mttkrp_sweep(MttkrpEngine& engine, const CooTensor& tensor,
                         const std::vector<Matrix>& factors, int reps = 5);

/// Markdown-ish table printer: fixed-width columns, header + rows. In
/// --json mode, print() instead emits one JSON object
/// {"table":NAME,"headers":[...],"rows":[[...],...]} per table, so the
/// experiment suite is consumable by trajectory tooling.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 14,
                        std::string name = "");
  void add_row(const std::vector<std::string>& cells);
  /// Attaches a provenance key/value pair emitted into the table's --json
  /// meta object (e.g. the microkernel tile widths a sweep selected). Text
  /// mode prints them as a trailing "key=value" line.
  void add_meta(const std::string& key, const std::string& value);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::pair<std::string, std::string>> meta_;
  int width_;
  std::string name_;
};

std::string fmt_seconds(double s);
std::string fmt_ratio(double r);
std::string fmt_bytes(std::size_t b);

}  // namespace mdcp::bench
