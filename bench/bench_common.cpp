#include "bench_common.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "mttkrp/registry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mdcp::bench {

namespace {
bool g_json_mode = false;

std::vector<std::pair<std::string, DatasetInfo>>& dataset_registry_mut() {
  static std::vector<std::pair<std::string, DatasetInfo>> registry;
  return registry;
}
}  // namespace

void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) g_json_mode = true;
  }
}

bool json_mode() { return g_json_mode; }

void note(const char* fmt, ...) {
  if (g_json_mode) return;
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
}

double bench_scale() {
  if (const char* env = std::getenv("MDCP_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 1.0;
}

void register_dataset(const std::string& name, const CooTensor& tensor) {
  DatasetInfo info;
  double cells = 1;
  for (mdcp::mode_t m = 0; m < tensor.order(); ++m) {
    info.shape.push_back(tensor.dim(m));
    cells *= static_cast<double>(tensor.dim(m));
  }
  info.nnz = tensor.nnz();
  info.density = cells > 0 ? static_cast<double>(tensor.nnz()) / cells : 0;
  auto& registry = dataset_registry_mut();
  for (auto& [existing, slot] : registry) {
    if (existing == name) {
      slot = std::move(info);
      return;
    }
  }
  registry.emplace_back(name, std::move(info));
}

const std::vector<std::pair<std::string, DatasetInfo>>& dataset_registry() {
  return dataset_registry_mut();
}

std::vector<Dataset> standard_datasets() {
  const double s = bench_scale();
  const auto n = [&](double base) { return static_cast<nnz_t>(base * s); };
  std::vector<Dataset> ds;
  ds.push_back({"tags4d",
                generate_zipf({800, 40000, 200000, 60000}, n(300000), 1.1, 101)});
  ds.push_back({"kb3d",
                generate_zipf({200000, 100, 80000}, n(250000), 1.2, 102)});
  ds.push_back({"ratings3d",
                generate_uniform({150000, 6000, 700}, n(300000), 103)});
  ds.push_back({"ehr5d",
                generate_clustered({20000, 4000, 3000, 500, 100}, n(250000),
                                   {.clusters = 256, .spread = 6.0}, 104)});
  ds.push_back({"uniform4d",
                generate_uniform({30000, 30000, 30000, 30000}, n(200000), 105)});
  ds.push_back({"clustered6d",
                generate_clustered({8000, 8000, 8000, 8000, 8000, 8000},
                                   n(200000), {.clusters = 128, .spread = 4.0},
                                   106)});
  for (const auto& d : ds) register_dataset(d.name, d.tensor);
  return ds;
}

std::vector<EngineColumn> engine_columns() {
  // Column order follows the registry's registration order.
  std::vector<EngineColumn> cols;
  for (const auto& name : EngineRegistry::instance().names())
    cols.push_back({name, name});
  return cols;
}

std::unique_ptr<MttkrpEngine> make_column_engine(const EngineColumn& col,
                                                 const CooTensor& tensor,
                                                 index_t rank,
                                                 KernelContext ctx) {
  return make_engine(col.engine, tensor, rank, ctx);
}

double time_mttkrp_sweep(MttkrpEngine& engine, const CooTensor& tensor,
                         const std::vector<Matrix>& factors, int reps) {
  Matrix out;
  // Warm-up sweep (first touch of memoized structures).
  engine.invalidate_all();
  for (mode_t m = 0; m < tensor.order(); ++m) {
    engine.compute(m, factors, out);
    engine.factor_updated(m);
  }
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    for (mode_t m = 0; m < tensor.order(); ++m) {
      engine.compute(m, factors, out);
      engine.factor_updated(m);
    }
    times.push_back(t.seconds());
  }
  return *std::min_element(times.begin(), times.end());
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int width,
                           std::string name)
    : headers_(std::move(headers)), width_(width), name_(std::move(name)) {}

void TablePrinter::add_row(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

void TablePrinter::add_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void TablePrinter::print() const {
  if (g_json_mode) {
    obs::JsonWriter w;
    w.begin_object().kv("table", name_.empty() ? "bench" : name_);
    w.key("headers").begin_array();
    for (const auto& h : headers_) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : rows_) {
      w.begin_array();
      for (const auto& c : row) w.value(c);
      w.end_array();
    }
    w.end_array();
    // Provenance: enough context to compare this table against a run from
    // another machine or scale without consulting the producing binary.
    w.key("meta").begin_object();
    w.kv("bench_scale", bench_scale());
    w.kv("threads", static_cast<std::int64_t>(num_threads()));
    for (const auto& [k, v] : meta_) w.kv(k, v);
    // Parallel-schedule provenance: how many kernel launches ran
    // owner-computes vs privatized-reduction tiles up to this table (process
    // totals from the sched.* metrics; see sched/schedule.hpp).
    w.key("sched").begin_object();
    w.kv("owner_launches",
         static_cast<std::int64_t>(obs::MetricsRegistry::instance()
                                       .counter("sched.owner_launches")
                                       .value()));
    w.kv("privatized_launches",
         static_cast<std::int64_t>(obs::MetricsRegistry::instance()
                                       .counter("sched.privatized_launches")
                                       .value()));
    w.end_object();
    w.key("datasets").begin_object();
    for (const auto& [name, info] : dataset_registry()) {
      w.key(name).begin_object();
      w.key("shape").begin_array();
      for (const index_t d : info.shape) w.value(static_cast<std::int64_t>(d));
      w.end_array();
      w.kv("nnz", static_cast<std::int64_t>(info.nnz));
      w.kv("density", info.density);
      w.end_object();
    }
    w.end_object().end_object().end_object();
    std::printf("%s\n", w.str().c_str());
    return;
  }
  const auto cell = [&](const std::string& s) {
    std::printf("%-*s", width_, s.c_str());
  };
  for (const auto& h : headers_) cell(h);
  std::printf("\n");
  for (std::size_t i = 0; i < headers_.size() * static_cast<std::size_t>(width_);
       ++i)
    std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) {
    for (const auto& c : row) cell(c);
    std::printf("\n");
  }
  for (const auto& [k, v] : meta_)
    std::printf("%s=%s\n", k.c_str(), v.c_str());
  std::printf("\n");
}

std::string fmt_seconds(double s) {
  std::ostringstream os;
  if (s < 1e-3) {
    os.precision(3);
    os << s * 1e6 << "us";
  } else if (s < 1.0) {
    os.precision(4);
    os << s * 1e3 << "ms";
  } else {
    os.precision(4);
    os << s << "s";
  }
  return os.str();
}

std::string fmt_ratio(double r) {
  std::ostringstream os;
  os.precision(3);
  os << r << "x";
  return os.str();
}

std::string fmt_bytes(std::size_t b) {
  std::ostringstream os;
  os.precision(4);
  if (b < (1u << 20)) {
    os << static_cast<double>(b) / 1024.0 << "KiB";
  } else if (b < (1u << 30)) {
    os << static_cast<double>(b) / (1024.0 * 1024.0) << "MiB";
  } else {
    os << static_cast<double>(b) / (1024.0 * 1024.0 * 1024.0) << "GiB";
  }
  return os.str();
}

}  // namespace mdcp::bench
