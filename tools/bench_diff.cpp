// bench_diff — compares two BENCH_*.json telemetry files (bench_runner
// output) and flags per-table regressions:
//
//   bench_diff BASE.json NEW.json [--threshold 0.25] [--json]
//
// Each gated cell is banded by obs::band with the base cell as the only
// sample, so it regresses when new > base·(1 + threshold) — the rule
// `mdcp_cli compare` and `mdcp_cli drift` use. The threshold is the noise
// allowance, not a target: see docs/benchmarking.md for the policy.
//
// Exit status: 0 all gated cells within threshold, 1 at least one
// regression, 2 structural problems (unreadable file, bench/table/row
// present in BASE but missing in NEW).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compare_util.hpp"
#include "number_arg.hpp"
#include "obs/json.hpp"

namespace {

using mdcp::obs::Finding;
using mdcp::obs::JsonValue;
using mdcp::obs::JsonWriter;
using mdcp::tools::mismatch;

/// The normalized value of a time or byte cell ("123us", "4.5ms", "2.3s" →
/// seconds; "1.2KiB", "3MiB", "1GiB" → bytes): smaller-is-better, and it
/// gates the exit status. Ratio ("3x") and bare-number cells give nullopt —
/// a speedup column's direction depends on what the table divides, so
/// gating on it would guess.
std::optional<double> parse_cell(const std::string& cell) {
  static const std::pair<const char*, double> kUnits[] = {
      {"us", 1e-6},    {"ms", 1e-3},           {"s", 1.0},
      {"KiB", 1024.0}, {"MiB", 1024.0 * 1024}, {"GiB", 1024.0 * 1024 * 1024}};
  const char* p = cell.c_str();
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p || !std::isfinite(v)) return std::nullopt;
  for (const auto& [unit, scale] : kUnits)
    if (std::strcmp(end, unit) == 0) return v * scale;
  return std::nullopt;
}

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: bench_diff BASE.json NEW.json [--threshold T] "
               "[--json]\n");
  std::exit(1);
}

bool load_file(const char* path, JsonValue& out) {
  std::ifstream is(path);
  if (!is.good()) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return false;
  }
  std::stringstream ss;
  ss << is.rdbuf();
  std::string err;
  if (!mdcp::obs::json_parse(ss.str(), out, &err)) {
    std::fprintf(stderr, "error: %s: %s\n", path, err.c_str());
    return false;
  }
  return true;
}

struct TableRef {
  std::string bench;
  std::string table;
  const JsonValue* headers = nullptr;
  const JsonValue* rows = nullptr;
};

std::vector<TableRef> collect_tables(const JsonValue& doc) {
  std::vector<TableRef> out;
  const JsonValue* benches = doc.find("benches", JsonValue::Kind::kArray);
  if (benches == nullptr) return out;
  for (const JsonValue& bench : benches->items()) {
    const JsonValue* name = bench.find("name", JsonValue::Kind::kString);
    const JsonValue* tables = bench.find("tables", JsonValue::Kind::kArray);
    if (name == nullptr || tables == nullptr) continue;
    for (const JsonValue& t : tables->items()) {
      const JsonValue* tname = t.find("table", JsonValue::Kind::kString);
      if (tname == nullptr) continue;
      TableRef ref;
      ref.bench = name->as_string();
      ref.table = tname->as_string();
      ref.headers = t.find("headers", JsonValue::Kind::kArray);
      ref.rows = t.find("rows", JsonValue::Kind::kArray);
      out.push_back(ref);
    }
  }
  return out;
}

const TableRef* find_table(const std::vector<TableRef>& tables,
                           const TableRef& want) {
  for (const auto& t : tables)
    if (t.bench == want.bench && t.table == want.table) return &t;
  return nullptr;
}

/// Rows are keyed by their first cell (dataset / parameter column).
const JsonValue* find_row(const JsonValue& rows, const std::string& key) {
  for (const JsonValue& row : rows.items()) {
    if (row.is_array() && !row.items().empty() &&
        row.items()[0].as_string() == key)
      return &row;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* base_path = nullptr;
  const char* new_path = nullptr;
  double threshold = 0.25;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threshold") {
      if (i + 1 >= argc) usage("missing value for --threshold");
      const auto v = mdcp::tools::parse_number(argv[++i]);
      if (!v) usage(mdcp::tools::not_a_number("threshold", argv[i]).c_str());
      threshold = *v;
    } else if (a == "--json") {
      json = true;
    } else if (base_path == nullptr) {
      base_path = argv[i];
    } else if (new_path == nullptr) {
      new_path = argv[i];
    } else {
      usage(("unexpected argument: " + a).c_str());
    }
  }
  if (base_path == nullptr || new_path == nullptr)
    usage("need BASE.json and NEW.json");
  if (threshold <= 0) usage("--threshold must be positive");

  JsonValue base_doc, new_doc;
  if (!load_file(base_path, base_doc) || !load_file(new_path, new_doc))
    return 2;

  const auto base_tables = collect_tables(base_doc);
  const auto new_tables = collect_tables(new_doc);

  std::vector<Finding> findings;
  for (const auto& bt : base_tables) {
    const TableRef* nt = find_table(new_tables, bt);
    if (nt == nullptr || nt->rows == nullptr || bt.rows == nullptr) {
      findings.push_back(mismatch(bt.bench + "/" + bt.table));
      continue;
    }
    for (const JsonValue& brow : bt.rows->items()) {
      if (!brow.is_array() || brow.items().empty()) continue;
      const std::string key = brow.items()[0].as_string();
      const JsonValue* nrow = find_row(*nt->rows, key);
      if (nrow == nullptr) {
        findings.push_back(mismatch(bt.bench + "/" + bt.table + "/" + key));
        continue;
      }
      const std::size_t ncols =
          std::min(brow.items().size(), nrow->items().size());
      for (std::size_t c = 1; c < ncols; ++c) {
        const auto bc = parse_cell(brow.items()[c].as_string());
        const auto nc = parse_cell(nrow->items()[c].as_string());
        if (!bc || !nc || *bc <= 0) continue;
        std::string col = "col" + std::to_string(c);
        if (bt.headers != nullptr && c < bt.headers->items().size())
          col = bt.headers->items()[c].as_string();
        Finding f = mdcp::obs::band({*bc}, *nc, threshold);
        f.kernel = bt.bench + "/" + bt.table + "/" + key + "/" + col;
        findings.push_back(std::move(f));
      }
    }
  }

  JsonWriter w;
  if (json)
    w.begin_object()
        .kv("schema", "mdcp-bench-diff/2")
        .kv("base", base_path)
        .kv("new", new_path);
  return mdcp::tools::print_findings(
      std::string("bench_diff: ") + base_path + " vs " + new_path, threshold,
      findings, json ? &w : nullptr);
}
