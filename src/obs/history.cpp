#include "obs/history.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace mdcp::obs {

namespace {

// Kernels faster than this are not banded: such timings are all noise.
constexpr double kMinKernelSeconds = 1e-6;

std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // Separate fields: hash the delimiter so "ab"+"c" != "a"+"bc".
  h ^= 0x1fu;
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t provenance_build_id(const std::string& compiler,
                                  const std::string& flags,
                                  const std::string& build_type) {
  return fnv1a(build_type, fnv1a(flags, fnv1a(compiler)));
}

std::uint64_t provenance_machine_id(const std::string& host,
                                    std::uint64_t hardware_threads) {
  std::uint64_t h = fnv1a(host);
  h = fnv1a(std::to_string(hardware_threads), h);
  return h;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// mode0…N−1, then "mttkrp": their sum, or the summary mean for a report
// without per-mode times.
std::vector<double> kernel_seconds(const RunObservation& o) {
  std::vector<double> k = o.mode_seconds;
  k.push_back(k.empty() ? o.seconds_per_iteration
                        : std::accumulate(k.begin(), k.end(), 0.0));
  return k;
}

}  // namespace

std::string strategy_from_engine_label(const std::string& label) {
  for (const char* prefix : {"auto+probe:", "auto:"}) {
    if (label.rfind(prefix, 0) == 0) return label.substr(std::strlen(prefix));
  }
  return label;
}

std::uint64_t HistoryStore::current_build_id() {
  static const std::uint64_t id = [] {
    const BuildInfo& b = BuildInfo::current();
    return provenance_build_id(b.compiler, b.flags, b.build_type);
  }();
  return id;
}

std::uint64_t HistoryStore::current_machine_id() {
  static const std::uint64_t id = provenance_machine_id(
      BuildInfo::current().host, BuildInfo::current().hardware_threads);
  return id;
}

std::optional<RunObservation> HistoryStore::parse_report_file(
    const std::string& path, HistoryIngestStats* stats) {
  HistoryIngestStats local;
  if (stats == nullptr) stats = &local;
  ++stats->files_scanned;

  std::ifstream in(path);
  if (!in.good()) {
    ++stats->files_unparseable;
    return std::nullopt;
  }

  const JsonValue* header = nullptr;
  const JsonValue* summary = nullptr;
  std::vector<JsonValue> records;  // keep parsed lines alive for the pointers
  records.reserve(16);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    JsonValue v;
    if (!json_parse(line, v) || !v.is_object()) {
      ++stats->files_unparseable;
      return std::nullopt;
    }
    records.push_back(std::move(v));
  }
  // Each mode's fastest iteration (see RunObservation::mode_seconds).
  std::vector<double> fastest;
  for (const JsonValue& v : records) {
    const JsonValue* type = v.find("type", JsonValue::Kind::kString);
    if (type == nullptr) continue;
    if (type->as_string() == "header" && header == nullptr) header = &v;
    if (type->as_string() == "summary") summary = &v;  // last one wins
    const JsonValue* modes =
        v.find("mttkrp_mode_seconds", JsonValue::Kind::kArray);
    if (type->as_string() != "iteration" || modes == nullptr) continue;
    if (fastest.empty())
      fastest.assign(modes->items().size(),
                     std::numeric_limits<double>::infinity());
    const std::size_t n = std::min(fastest.size(), modes->items().size());
    for (std::size_t m = 0; m < n; ++m)
      fastest[m] = std::min(fastest[m], modes->items()[m].as_number());
  }
  if (header == nullptr || summary == nullptr) {
    ++stats->files_incomplete;
    return std::nullopt;
  }

  // Version gate: absent = version 1 (pre-versioned reports are readable);
  // anything newer than this build understands is skipped, not guessed at.
  int version = 1;
  if (const JsonValue* v =
          header->find("report_version", JsonValue::Kind::kNumber))
    version = static_cast<int>(v->as_number());
  if (version < 1 || version > kReportVersion) {
    ++stats->files_unknown_version;
    return std::nullopt;
  }

  RunObservation obs;
  obs.source_file = path;
  if (const JsonValue* fp =
          header->find("fingerprint", JsonValue::Kind::kString))
    obs.fingerprint = std::strtoull(fp->as_string().c_str(), nullptr, 16);
  if (const JsonValue* kt =
          header->find("kernel_threads", JsonValue::Kind::kNumber))
    obs.threads = static_cast<int>(kt->as_number());

  std::string compiler, flags, build_type, host;
  std::uint64_t hardware_threads = 0;
  if (const JsonValue* v = header->find("compiler", JsonValue::Kind::kString))
    compiler = v->as_string();
  if (const JsonValue* v = header->find("flags", JsonValue::Kind::kString))
    flags = v->as_string();
  if (const JsonValue* v =
          header->find("build_type", JsonValue::Kind::kString))
    build_type = v->as_string();
  if (const JsonValue* v = header->find("host", JsonValue::Kind::kString))
    host = v->as_string();
  if (const JsonValue* v =
          header->find("hardware_threads", JsonValue::Kind::kNumber))
    hardware_threads = static_cast<std::uint64_t>(v->as_number());
  obs.build_id = provenance_build_id(compiler, flags, build_type);
  obs.machine_id = provenance_machine_id(host, hardware_threads);

  if (const JsonValue* v = summary->find("engine", JsonValue::Kind::kString))
    obs.engine_label = v->as_string();
  obs.strategy = strategy_from_engine_label(obs.engine_label);
  if (const JsonValue* v = summary->find("rank", JsonValue::Kind::kNumber))
    obs.rank = static_cast<std::uint32_t>(v->as_number());
  if (const JsonValue* v =
          summary->find("iterations", JsonValue::Kind::kNumber))
    obs.iterations = static_cast<int>(v->as_number());
  if (const JsonValue* v =
          summary->find("final_fit", JsonValue::Kind::kNumber))
    obs.final_fit = v->as_number();
  if (const JsonValue* v =
          summary->find("plan_source", JsonValue::Kind::kString))
    obs.plan_source = v->as_string();
  if (const JsonValue* v = summary->find("aborted", JsonValue::Kind::kBool))
    obs.aborted = v->as_bool();

  double mttkrp_seconds = 0;
  if (const JsonValue* v =
          summary->find("mttkrp_seconds", JsonValue::Kind::kNumber))
    mttkrp_seconds = v->as_number();
  if (obs.iterations > 0) {
    const double iters = static_cast<double>(obs.iterations);
    obs.seconds_per_iteration = mttkrp_seconds / iters;
    if (!fastest.empty()) {
      obs.mode_seconds = std::move(fastest);
    } else if (const JsonValue* v = summary->find("mttkrp_mode_seconds",
                                                  JsonValue::Kind::kArray)) {
      obs.mode_seconds.reserve(v->items().size());
      for (const JsonValue& item : v->items())
        obs.mode_seconds.push_back(item.as_number() / iters);
    }
    if (const JsonValue* v = summary->find(
            "predicted_seconds_per_iteration", JsonValue::Kind::kNumber)) {
      if (v->as_number() > 0 && obs.seconds_per_iteration > 0)
        obs.time_error_ratio = v->as_number() / obs.seconds_per_iteration;
    }
  }

  ++stats->files_ingested;
  return obs;
}

bool HistoryStore::ingest_file(const std::string& path,
                               HistoryIngestStats* stats) {
  auto obs = parse_report_file(path, stats);
  if (!obs.has_value()) return false;
  observations_.push_back(std::move(*obs));
  return true;
}

HistoryIngestStats HistoryStore::ingest_dir(
    const std::string& dir, const std::vector<std::string>& exclude) {
  namespace fs = std::filesystem;
  HistoryIngestStats stats;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return stats;

  std::vector<fs::path> excluded;
  excluded.reserve(exclude.size());
  for (const auto& e : exclude)
    excluded.push_back(fs::weakly_canonical(e, ec));

  // Sorted for deterministic observation order (directory order is not).
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == ".tmp") {
      // A RunReporter stream that never reached close(): the run died and
      // nothing (not even the crash handler) promoted it. Make the loss
      // visible instead of pretending the run never happened.
      ++stats.files_orphaned_tmp;
      continue;
    }
    if (entry.path().extension() != ".jsonl") continue;
    const fs::path canon = fs::weakly_canonical(entry.path(), ec);
    if (std::find(excluded.begin(), excluded.end(), canon) != excluded.end())
      continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) ingest_file(f.string(), &stats);
  return stats;
}

void HistoryStore::record(RunObservation obs) {
  observations_.push_back(std::move(obs));
}

std::vector<const RunObservation*> HistoryStore::query(
    std::uint64_t fingerprint, std::uint32_t rank,
    const std::string& strategy) const {
  std::vector<const RunObservation*> out;
  for (const RunObservation& obs : observations_) {
    if (obs.fingerprint != fingerprint) continue;
    if (obs.rank != rank && rank != 0) continue;
    if (!strategy.empty() && obs.strategy != strategy) continue;
    out.push_back(&obs);
  }
  return out;
}

std::vector<HistoryStore::Group> HistoryStore::groups() const {
  struct Key {
    std::uint64_t fingerprint;
    std::string label;
    std::uint32_t rank;
    bool operator<(const Key& o) const {
      if (fingerprint != o.fingerprint) return fingerprint < o.fingerprint;
      if (label != o.label) return label < o.label;
      return rank < o.rank;
    }
  };
  std::map<Key, Group> grouped;
  std::map<Key, std::pair<double, std::size_t>> error_acc;
  for (const RunObservation& obs : observations_) {
    const Key key{obs.fingerprint, obs.engine_label, obs.rank};
    Group& g = grouped[key];
    if (g.runs == 0 && g.aborted_runs == 0) {
      g.fingerprint = obs.fingerprint;
      g.engine_label = obs.engine_label;
      g.rank = obs.rank;
    }
    if (obs.aborted) {
      // Crash-finalized record: count it, but keep its zero timings out of
      // the group's statistics.
      ++g.aborted_runs;
      continue;
    }
    if (g.runs == 0) {
      g.min_seconds_per_iteration = obs.seconds_per_iteration;
      g.max_seconds_per_iteration = obs.seconds_per_iteration;
    }
    ++g.runs;
    g.mean_seconds_per_iteration += obs.seconds_per_iteration;
    g.min_seconds_per_iteration =
        std::min(g.min_seconds_per_iteration, obs.seconds_per_iteration);
    g.max_seconds_per_iteration =
        std::max(g.max_seconds_per_iteration, obs.seconds_per_iteration);
    if (!obs.plan_source.empty()) g.last_plan_source = obs.plan_source;
    if (obs.time_error_ratio > 0) {
      error_acc[key].first += obs.time_error_ratio;
      ++error_acc[key].second;
    }
  }
  std::vector<Group> out;
  out.reserve(grouped.size());
  for (auto& [key, g] : grouped) {
    if (g.runs > 0) g.mean_seconds_per_iteration /= static_cast<double>(g.runs);
    const auto it = error_acc.find(key);
    if (it != error_acc.end() && it->second.second > 0)
      g.mean_time_error_ratio =
          it->second.first / static_cast<double>(it->second.second);
    out.push_back(std::move(g));
  }
  return out;
}

Finding band(std::vector<double> samples, double measured,
             double threshold) {
  Finding f;
  f.measured = measured;
  f.median = median_of(samples);
  for (double& s : samples) s = std::abs(s - f.median);
  const double mad = median_of(std::move(samples));
  f.scale = std::max(
      {1.4826 * mad, threshold / kBandSigma * f.median, 1e-12});
  f.z = (measured - f.median) / f.scale;
  // |z| > kBandSigma, decided as a ratio to the median so that one sample
  // (MAD 0) is exactly `measured / base > 1 + threshold`: bench cells carry
  // few digits, so a value right on the edge is common there.
  const double width =
      std::max(kBandSigma * 1.4826 * mad / f.median, threshold);
  if (measured / f.median > 1 + width)
    f.status = "regression";
  else if (measured / f.median < 1 - width)
    f.status = "improved";
  return f;
}

DriftReport band_kernels(const std::vector<const RunObservation*>& history,
                         const RunObservation& run, double threshold) {
  DriftReport report;
  report.history_runs = history.size();
  std::vector<std::vector<double>> past;
  past.reserve(history.size());
  for (const RunObservation* obs : history)
    past.push_back(kernel_seconds(*obs));

  const std::vector<double> now = kernel_seconds(run);
  const std::size_t modes = now.size() - 1;
  for (std::size_t k = 0; k <= modes; ++k) {
    std::vector<double> samples;
    for (const std::vector<double>& p : past) {
      // The total is the last entry; mode k only exists in runs that have it.
      const double s = k == modes ? p.back() : k + 1 < p.size() ? p[k] : 0;
      if (s > 0) samples.push_back(s);
    }
    if (samples.empty() || now[k] < kMinKernelSeconds) continue;
    Finding f = band(std::move(samples), now[k], threshold);
    if (f.median < kMinKernelSeconds) continue;
    f.kernel = k == modes ? "mttkrp" : "mode" + std::to_string(k);
    if (std::strcmp(f.status, "regression") == 0) report.regressed = true;
    if (std::strcmp(f.status, "ok") != 0) report.out_of_band = true;
    report.findings.push_back(std::move(f));
  }
  return report;
}

DriftReport detect_drift(const HistoryStore& store, const RunObservation& run,
                         double threshold) {
  const auto history = store.query(run.fingerprint, run.rank, run.strategy);
  if (history.size() >= 2) return band_kernels(history, run, threshold);
  DriftReport report;  // no band without a distribution
  report.history_runs = history.size();
  return report;
}

}  // namespace mdcp::obs
