// End-to-end CP-ALS benchmark over mdcp's public API.
//
// One process runs one workload as a closed loop (one client, no think time)
// of cold decompositions. Each op does what `mdcp_cli decompose` does: read
// the .tns file, construct and prepare the "auto" engine (tuner + symbolic
// build), and run cp_als for a fixed iteration count with tolerance 0. The
// inputs come from seeded generators and reach the library only through the
// .tns files written before the timed loop.
//
// With --trace the same ops run with spans around every call the benchmark
// makes into the library, followed by three layer probes: a replay of one
// CP-ALS op from the public layer functions, the tuner's regret against
// every fixed engine, and (for multi-threaded workloads) the 1-thread
// speedup of the compute sweep. Spans are kept in memory and written with
// the result as Chrome trace events.
//
// Usage: mdcp_benchmark --workload NAME [--seed S] [--seconds T] [--trace]
//                       [--out FILE]
// The last line on stdout is the result as one JSON object; --out also
// writes it to FILE, plus the trace events of a --trace run. The .tns inputs
// are written next to FILE (or into the working directory) and removed at
// exit. Exits 1 if any op failed or any output check failed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cpals/cpals.hpp"
#include "cpals/kruskal.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "model/tuner.hpp"
#include "mttkrp/engine.hpp"
#include "mttkrp/registry.hpp"
#include "tensor/generator.hpp"
#include "tensor/tensor_io.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads. Sizes live here only; the README gives the reason for each.

enum class Kind { kUniform, kZipf, kClustered };

struct TensorSpec {
  Kind kind = Kind::kUniform;
  shape_t shape;
  nnz_t nnz = 0;
  double zipf_exponent = 1.1;
  ClusteredOptions clustered;
};

struct Workload {
  const char* name;
  index_t rank;
  int threads;
  int iterations;
  std::vector<TensorSpec> (*inputs)(std::uint64_t seed);
};

// 100 small tensors: orders rotate 3–6, generators rotate uniform/zipf/
// clustered, every mode size is drawn from [500, 1700]. Order-6 inputs are
// all zipf: at 20k nonzeros, uniform and clustered order-6 tensors now and
// then (1 input in 300 to 600) let two ALS components collapse into one,
// which makes the normal equations singular and fails the ridge-retry check.
std::vector<TensorSpec> batch_small_inputs(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TensorSpec> specs(100);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t order = 3 + i % 4;
    specs[i].kind = order == 6 ? Kind::kZipf : static_cast<Kind>(i % 3);
    for (std::size_t m = 0; m < order; ++m)
      specs[i].shape.push_back(500 + rng.next_index(1201));
    specs[i].nnz = 20000;
    specs[i].clustered = {64, 8.0};
  }
  return specs;
}

// Three tensors of one kind, each from its own seed. At equal flops the cost
// of such a tensor still differs by about 10% from seed to seed, repeatably,
// so a run averages over several.
std::vector<TensorSpec> three(const TensorSpec& s) {
  return std::vector<TensorSpec>(3, s);
}

const Workload kWorkloads[] = {
    {"hub4d", 16, 1, 5,
     [](std::uint64_t) {
       return three({Kind::kZipf, {800, 40000, 200000, 60000}, 300000, 1.1, {}});
     }},
    {"overlap5d", 32, 1, 8,
     [](std::uint64_t) {
       return three({Kind::kClustered,
                    {2000, 1500, 1000, 500, 200},
                    400000,
                    1.1,
                    {256, 6.0}});
     }},
    {"rel4d-t4", 16, 4, 20,
     [](std::uint64_t) {
       return three({Kind::kZipf, {40000, 8, 40000, 40000}, 1000000, 1.2, {}});
     }},
    {"batch-small", 10, 1, 3, batch_small_inputs},
};

// Inputs whose layers the traced run probes (replay and regret): every 5th.
// That is the first of the three-tensor workloads, and a sample of
// batch-small that covers every order and generator (5 is coprime to both
// rotations).
constexpr std::size_t kProbeStride = 5;

CooTensor generate(const TensorSpec& s, std::uint64_t seed) {
  switch (s.kind) {
    case Kind::kUniform: return generate_uniform(s.shape, s.nnz, seed);
    case Kind::kZipf:
      return generate_zipf(s.shape, s.nnz, s.zipf_exponent, seed);
    case Kind::kClustered:
      return generate_clustered(s.shape, s.nnz, s.clustered, seed);
  }
  throw std::logic_error("unknown generator");
}

// ---------------------------------------------------------------------------
// Spans around the benchmark's own calls into the library.

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent;
    int op;
  };
  struct Totals {
    int count = 0;
    double seconds = 0;       ///< summed durations
    double self_seconds = 0;  ///< durations minus the time children cover
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  /// Runs fn() inside a span (recorded only when tracing) and returns its
  /// wall seconds.
  template <typename Fn>
  double span(std::string name, int op, Fn&& fn) {
    int id = -1;
    if (on_) {
      id = static_cast<int>(spans_.size());
      spans_.push_back({std::move(name), {}, {},
                        open_.empty() ? -1 : open_.back(), op});
      open_.push_back(id);
    }
    const auto t0 = Clock::now();
    try {
      fn();
    } catch (...) {
      close(id, t0, Clock::now());
      throw;
    }
    const auto t1 = Clock::now();
    close(id, t0, t1);
    return seconds_between(t0, t1);
  }

  Totals totals(std::string_view name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += seconds_between(s.start, s.end);
    Totals t;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      const double d = seconds_between(spans_[i].start, spans_[i].end);
      ++t.count;
      t.seconds += d;
      t.self_seconds += d - child[i];
    }
    return t;
  }

  /// Chrome trace-event array ("X" complete events, microseconds).
  std::string events_json() const;

 private:
  void close(int id, Clock::time_point t0, Clock::time_point t1) {
    if (id < 0) return;
    spans_[id].start = t0;
    spans_[id].end = t1;
    open_.pop_back();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// JSON output (hand-written: the benchmark depends on no library module
// beyond the ones it measures).

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string number(double v) { return std::isfinite(v) ? fmt(v) : "null"; }

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ':' + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) { return raw(key, number(v)); }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  JsonObject& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string json() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string string_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += quote(v[i]);
  }
  return out + "]";
}

std::string number_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += number(v[i]);
  }
  return out + "]";
}

std::string Tracer::events_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.num("span", static_cast<double>(i))
        .num("parent", s.parent)
        .num("op", s.op);
    JsonObject e;
    e.str("name", s.name)
        .str("ph", "X")
        .num("ts", seconds_between(epoch_, s.start) * 1e6)
        .num("dur", seconds_between(s.start, s.end) * 1e6)
        .num("pid", 1)
        .num("tid", 1)
        .raw("args", args.json());
    out += i ? ",\n" : "\n";
    out += e.json();
  }
  return out + "\n]";
}

// ---------------------------------------------------------------------------
// Output checks. A failed check throws and fails the op it belongs to.

struct check_failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Input {
  std::string path;
  shape_t shape;
  nnz_t nnz = 0;
  real_t norm = 0;
  bool mttkrp_checked = false;
  bool has_fit = false;
  real_t fit = 0;  ///< first op's final fit; every later op must match it
};

// Round-trip guard: the file must read back as the generated tensor. Without
// the shape hint, a mode whose last index holds no nonzero would shrink and
// change the factor initialisation (and the fit).
void check_round_trip(const CooTensor& x, const Input& in) {
  if (x.shape() != in.shape || x.nnz() != in.nnz || x.norm() != in.norm)
    throw check_failure("round trip: " + in.path +
                        " read back with a different shape, nnz or norm");
}

// cp_als's initial factors for `seed`.
std::vector<Matrix> random_factors(const CooTensor& x, index_t rank,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> f;
  for (mode_t m = 0; m < x.order(); ++m)
    f.push_back(Matrix::random_uniform(x.dim(m), rank, rng));
  return f;
}

// Every mode's MTTKRP at cp_als's initial factors against the reference.
void check_mttkrp(MttkrpEngine& engine, const CooTensor& x, index_t rank,
                  std::uint64_t seed) {
  engine.invalidate_all();
  const auto factors = random_factors(x, rank, seed);
  Matrix out, ref;
  for (mode_t m = 0; m < x.order(); ++m) {
    engine.compute(m, factors, out);
    mttkrp_reference(x, factors, m, ref);
    real_t scale = 0;
    for (std::size_t e = 0; e < ref.size(); ++e)
      scale = std::max(scale, std::abs(ref.data()[e]));
    const real_t err = Matrix::max_abs_diff(out, ref);
    if (!(err <= 1e-10 * scale))
      throw check_failure("mttkrp mode " + std::to_string(m) + " of " +
                          engine.name() + ": max abs error " + fmt(err) +
                          " vs max |ref| " + fmt(scale));
  }
  engine.invalidate_all();
}

void check_result(const CpAlsResult& r, int iterations, Input& in) {
  const real_t fit = r.final_fit();
  if (r.iterations != iterations || !std::isfinite(fit))
    throw check_failure("cp_als ran " + std::to_string(r.iterations) +
                        " iterations to fit " + fmt(fit));
  if (r.recoveries != 0 || r.ridge_retries != 0 || r.pseudo_inverse_solves != 0)
    throw check_failure("cp_als needed numerical recovery: recoveries=" +
                        std::to_string(r.recoveries) + " ridge_retries=" +
                        std::to_string(r.ridge_retries) + " pinv=" +
                        std::to_string(r.pseudo_inverse_solves));
  if (!in.has_fit) {
    in.has_fit = true;
    in.fit = fit;
  } else if (fit != in.fit) {
    throw check_failure("final fit " + fmt(fit) + " differs from the run's "
                        "first fit " + fmt(in.fit) + " on " + in.path);
  }
}

// ---------------------------------------------------------------------------
// Ops.

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpAlsOptions als_options(const Workload& w, std::uint64_t seed) {
  CpAlsOptions opt;
  opt.rank = w.rank;
  opt.max_iterations = w.iterations;
  opt.tolerance = 0;
  opt.seed = seed;
  return opt;
}

struct OpRecord {
  std::size_t input = 0;
  bool ok = false;
  double read_s = 0, prepare_s = 0, cpals_s = 0;
  int iterations = 0;
  std::string engine;
  std::uint64_t flops = 0, owner_launches = 0, privatized_launches = 0;
  long faults = 0;
  int ridge_retries = 0;
  std::size_t aux_bytes = 0, scratch_bytes = 0;
};

// One cold decomposition. The round-trip guard and the MTTKRP check (first
// op per input only) run outside the timed calls.
OpRecord run_op(const Workload& w, Input& in, std::uint64_t seed, int op,
                Tracer& tr, std::vector<std::string>& errors) {
  OpRecord r;
  try {
    tr.span("op", op, [&] {
      CooTensor x;
      r.read_s = tr.span("tensor.read", op,
                         [&] { x = read_tns_file(in.path, in.shape); });
      check_round_trip(x, in);
      if (tr.on()) {
        CostModelParams params;
        params.threads = w.threads;
        tr.span("model.select", op,
                [&] { (void)select_strategy(x, w.rank, 0, params); });
      }
      std::unique_ptr<MttkrpEngine> engine;
      r.prepare_s = tr.span("engine.prepare", op, [&] {
        engine = make_engine("auto", x, w.rank);
      });
      {
        CpAlsResult res;
        const long faults_before = minor_faults();
        r.cpals_s = tr.span("cpals.run", op, [&] {
          res = cp_als(x, *engine, als_options(w, seed));
        });
        r.faults = minor_faults() - faults_before;
        r.ridge_retries = res.ridge_retries;
        check_result(res, w.iterations, in);
        r.iterations = res.iterations;
        r.engine = res.engine_name;
        r.flops = res.kernel_stats.flops;
        r.owner_launches = res.kernel_stats.owner_launches;
        r.privatized_launches = res.kernel_stats.privatized_launches;
        r.aux_bytes = res.engine_peak_memory_bytes;
        r.scratch_bytes = res.kernel_stats.peak_scratch_bytes;
      }  // the result's factors are freed before the check allocates its own
      if (!in.mttkrp_checked) {
        tr.span("check.mttkrp", op,
                [&] { check_mttkrp(*engine, x, w.rank, seed); });
        in.mttkrp_checked = true;
      }
    });
    r.ok = true;
  } catch (const std::exception& e) {
    errors.push_back("op " + std::to_string(op) + ": " + e.what());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced-run layer probes.

struct ReplayStats {
  int ops = 0;
  int iterations = 0;
  std::uint64_t flops = 0;
  double max_mode_s = 0;  ///< summed over probed inputs
  bool bitwise = true;    ///< replay fit == cp_als fit bit for bit
};

// One CP-ALS op rebuilt from the public layer calls cp_als makes (factor
// init, compute, Hadamard, solve, normalize, Gram, factor_updated, fit
// identity), each in its own span. Returns the final fit.
real_t replay_op(const CooTensor& x, MttkrpEngine& engine, index_t rank,
                 int iterations, std::uint64_t seed, Tracer& tr, int op,
                 std::vector<double>& mode_s) {
  const mode_t order = x.order();
  engine.invalidate_all();
  std::vector<Matrix> factors;
  std::vector<Matrix> grams(order);
  real_t x_norm = 0;
  tr.span("cpals.init", op, [&] {
    factors = random_factors(x, rank, seed);
    for (mode_t m = 0; m < order; ++m) gram(factors[m], grams[m]);
    x_norm = x.norm();
  });
  std::vector<real_t> lambda(rank, 1);
  Matrix out, h;
  real_t fit = 0;
  for (int it = 0; it < iterations; ++it) {
    tr.span("cpals.iteration", op, [&] {
      for (mode_t n = 0; n < order; ++n) {
        mode_s[n] += tr.span("engine.compute", op,
                             [&] { engine.compute(n, factors, out); });
        tr.span("la.hadamard", op, [&] {
          h.resize(rank, rank, 1);
          for (mode_t i = 0; i < order; ++i)
            if (i != n) hadamard_inplace(h, grams[i]);
        });
        SolveInfo info;
        tr.span("la.solve", op, [&] {
          factors[n] = solve_normal_equations(h, out, &info);
        });
        if (info.ridge_retries != 0 || info.used_pseudo_inverse)
          throw check_failure("replay solve needed regularization");
        tr.span("la.normalize", op,
                [&] { lambda = column_normalize(factors[n]); });
        tr.span("la.gram", op, [&] { gram(factors[n], grams[n]); });
        tr.span("engine.factor_updated", op,
                [&] { engine.factor_updated(n); });
      }
      // The fit identity, in cp_als's summation order.
      tr.span("cpals.fit", op, [&] {
        real_t inner = 0;
        const Matrix& u = factors[order - 1];
        for (index_t i = 0; i < u.rows(); ++i) {
          const auto urow = u.row(i);
          const auto mrow = out.row(i);
          for (index_t r = 0; r < rank; ++r)
            inner += lambda[r] * urow[r] * mrow[r];
        }
        Matrix acc(rank, rank, 1);
        for (mode_t i = 0; i < order; ++i) hadamard_inplace(acc, grams[i]);
        real_t m_norm_sq = 0;
        for (index_t r = 0; r < rank; ++r)
          for (index_t q = 0; q < rank; ++q)
            m_norm_sq += lambda[r] * lambda[q] * acc(r, q);
        fit = fit_from_parts(x_norm, inner,
                             std::sqrt(std::max<real_t>(m_norm_sq, 0)));
      });
    });
  }
  return fit;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Alternates three pairs of one cp_als op and one replay op on one prepared
// engine. Returns the median seconds of each kind.
std::pair<double, double> replay_pairs(const Workload& w, const CooTensor& x,
                                       MttkrpEngine& engine, std::uint64_t seed,
                                       Tracer& tr, int& op, ReplayStats& rs) {
  std::vector<double> als_s, replay_s, mode_s(x.order(), 0.0);
  for (int pair = 0; pair < 3; ++pair) {
    CpAlsResult res;
    als_s.push_back(tr.span("cpals.run", op, [&] {
      res = cp_als(x, engine, als_options(w, seed));
    }));
    ++op;
    real_t fit = 0;
    const std::uint64_t flops_before = engine.stats().flops;
    replay_s.push_back(tr.span("replay", op, [&] {
      fit = replay_op(x, engine, w.rank, w.iterations, seed, tr, op, mode_s);
    }));
    rs.flops += engine.stats().flops - flops_before;
    ++op;
    ++rs.ops;
    rs.iterations += w.iterations;
    const real_t als_fit = res.final_fit();
    rs.bitwise = rs.bitwise && fit == als_fit;
    if (!(std::abs(fit - als_fit) <= 1e-10 * std::abs(als_fit)))
      throw check_failure("replay fit " + fmt(fit) + " != cp_als fit " +
                          fmt(als_fit));
  }
  rs.max_mode_s += *std::max_element(mode_s.begin(), mode_s.end()) /
                   (3.0 * w.iterations);
  return {median(als_s), median(replay_s)};
}

// Minimum of three timed compute sweeps (one MTTKRP per mode, as ALS runs
// them) after one warm-up sweep.
double sweep_seconds(MttkrpEngine& engine, const std::vector<Matrix>& factors) {
  Matrix out;
  double best = 0;
  for (int pass = 0; pass < 4; ++pass) {
    const auto t0 = Clock::now();
    for (mode_t m = 0; m < factors.size(); ++m) {
      engine.compute(m, factors, out);
      engine.factor_updated(m);
    }
    const double s = seconds_between(t0, Clock::now());
    if (pass == 1 || (pass > 1 && s < best)) best = s;
  }
  return best;
}

// Tuner regret: sweep time of auto's pick over the fastest of every engine.
// auto+probe (measures instead of modelling) and ttv-chain (the naive
// baseline) are left out.
double regret(const Workload& w, const CooTensor& x, std::uint64_t seed,
              Tracer& tr, int op, std::vector<std::string>& engines) {
  const auto factors = random_factors(x, w.rank, seed);
  engines.clear();
  double best = 0, pick = 0;
  for (const std::string& name : EngineRegistry::instance().names()) {
    if (name == "auto+probe" || name == "ttv-chain") continue;
    engines.push_back(name);
    double s = 0;
    tr.span("regret:" + name, op, [&] {
      auto engine = make_engine(name, x, w.rank);
      s = sweep_seconds(*engine, factors);
    });
    if (name == "auto") pick = s;
    if (best == 0 || s < best) best = s;
  }
  return pick / best;
}

struct LayerReport {
  JsonObject metrics;
  bool replay_bitwise = true;
  std::vector<std::string> regret_engines;
};

// Per-layer metrics of a traced run: the loop's spans and engine counters,
// then replay pairs, regret and speedup on the probed inputs.
LayerReport layer_metrics(const Workload& w, const std::vector<Input>& inputs,
                          const std::vector<OpRecord>& ops,
                          std::uint64_t seed, Tracer& tr,
                          std::vector<std::string>& errors) {
  LayerReport out;
  ReplayStats rs;
  double als_total = 0, replay_total = 0, log_regret = 0, speedup = 1;
  int probed = 0;
  int op = static_cast<int>(ops.size());
  try {
    for (std::size_t i = 0; i < inputs.size(); i += kProbeStride) {
      const CooTensor x = read_tns_file(inputs[i].path, inputs[i].shape);
      auto engine = make_engine("auto", x, w.rank);
      const auto [als_s, replay_s] = replay_pairs(w, x, *engine, seed, tr, op, rs);
      als_total += als_s;
      replay_total += replay_s;
      log_regret += std::log(regret(w, x, seed, tr, op++, out.regret_engines));
      if (i == 0 && w.threads > 1) {
        const auto factors = random_factors(x, w.rank, seed);
        double parallel = 0, serial = 0;
        tr.span("sched.sweep", op,
                [&] { parallel = sweep_seconds(*engine, factors); });
        set_num_threads(1);
        tr.span("sched.sweep_1thread", op,
                [&] { serial = sweep_seconds(*engine, factors); });
        set_num_threads(w.threads);
        speedup = serial / parallel;
        ++op;
      }
      ++probed;
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("layer probes: ") + e.what());
  }
  out.replay_bitwise = rs.bitwise;

  const auto per_op = [&](const char* name) {
    const Tracer::Totals t = tr.totals(name);
    return t.count ? t.self_seconds / t.count : 0.0;
  };
  const double iters = std::max(rs.iterations, 1);
  const auto per_iter = [&](const char* name) {
    return tr.totals(name).self_seconds / iters;
  };
  const double dense = per_iter("la.hadamard") + per_iter("la.solve") +
                       per_iter("la.normalize") + per_iter("la.gram");
  const double compute = per_iter("engine.compute");
  const double iteration = tr.totals("cpals.iteration").seconds / iters;

  double flops = 0, faults = 0, loop_iters = 0, aux = 0, scratch = 0;
  double owner = 0, privatized = 0, ridge_retries = 0;
  for (const OpRecord& r : ops) {
    ridge_retries += r.ridge_retries;
    if (!r.ok) continue;
    flops += static_cast<double>(r.flops);
    faults += static_cast<double>(r.faults);
    loop_iters += r.iterations;
    owner += static_cast<double>(r.owner_launches);
    privatized += static_cast<double>(r.privatized_launches);
    aux = std::max(aux, static_cast<double>(r.aux_bytes));
    scratch = std::max(scratch, static_cast<double>(r.scratch_bytes));
  }
  loop_iters = std::max(loop_iters, 1.0);
  const double probes = std::max(probed, 1);

  out.metrics.num("tensor.read_s", per_op("tensor.read"))
      .num("model.select_s", per_op("model.select"))
      .num("model.regret", std::exp(log_regret / probes))
      .num("engine.prepare_s", per_op("engine.prepare"))
      .num("engine.compute_s", compute)
      .num("engine.max_mode_s", rs.max_mode_s / probes)
      .num("engine.flops_per_iter", flops / loop_iters)
      .num("engine.gflops",
           compute > 0 ? static_cast<double>(rs.flops) / iters / compute / 1e9
                       : 0)
      .num("engine.aux_mib", aux / (1024.0 * 1024.0))
      .num("engine.scratch_kib", scratch / 1024.0)
      .num("sched.privatized_share",
           owner + privatized > 0 ? privatized / (owner + privatized) : 0)
      .num("sched.speedup", speedup)
      .num("la.solve_s", per_iter("la.solve"))
      .num("la.gram_s", per_iter("la.gram"))
      .num("la.normalize_s", per_iter("la.normalize"))
      .num("la.hadamard_s", per_iter("la.hadamard"))
      .num("la.dense_share", iteration > 0 ? dense / iteration : 0)
      .num("la.ridge_retries", ridge_retries)
      .num("cpals.init_s", per_op("cpals.init"))
      .num("cpals.overhead_share",
           als_total > 0 ? (als_total - replay_total) / als_total : 0)
      .num("mem.faults_per_iter", faults / loop_iters);
  return out;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--out") a.out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

// Removes the .tns inputs however the run ends.
struct InputFiles {
  std::vector<Input> inputs;
  ~InputFiles() {
    std::error_code ec;
    for (const Input& in : inputs) fs::remove(in.path, ec);
  }
};

int run(const Workload& w, const Args& a) {
  set_num_threads(w.threads);
  Tracer tr(a.trace);
  std::vector<std::string> errors;
  const std::uint64_t gen_seed = splitmix64(a.seed);
  const std::uint64_t als_seed = splitmix64(gen_seed);

  // Inputs, untimed: generate, write once, keep only what the guard needs.
  const fs::path dir = a.out.empty() ? fs::path(".") : fs::path(a.out).parent_path();
  if (!dir.empty()) fs::create_directories(dir);
  InputFiles files;
  const auto specs = w.inputs(gen_seed);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CooTensor t = generate(specs[i], splitmix64(gen_seed + i + 1));
    Input in;
    in.path = (dir / (std::string(w.name) + "-" + std::to_string(a.seed) + "-" +
                      std::to_string(i) + ".tns"))
                  .string();
    in.shape = t.shape();
    in.nnz = t.nnz();
    in.norm = t.norm();
    write_tns_file(in.path, t);
    files.inputs.push_back(std::move(in));
  }
  std::vector<Input>& inputs = files.inputs;

  // The first op warms the process (allocator, page tables, caches) and is
  // not timed; its checks still count.
  const OpRecord warm_up = run_op(w, inputs[0], als_seed, -1, tr, errors);

  // The closed loop: whole rounds over the inputs, at least two, until the
  // next round would overrun --seconds.
  std::vector<OpRecord> ops;
  double peak_rss = 0;
  const auto loop_start = Clock::now();
  for (int rounds = 1;; ++rounds) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ops.push_back(run_op(w, inputs[i], als_seed, static_cast<int>(ops.size()),
                           tr, errors));
      ops.back().input = i;
    }
    // Peak RSS once every input has been decomposed: later rounds only add
    // allocator fragmentation, which grows with the op count.
    if (rounds == 1) peak_rss = peak_rss_mib();
    const double elapsed = seconds_between(loop_start, Clock::now());
    if (rounds >= 2 && elapsed * (rounds + 1) / rounds > a.seconds) break;
  }

  // Each timing metric is the median over an input's ops, averaged over the
  // inputs: the median rejects host noise, the mean averages the inputs.
  struct Samples {
    std::vector<double> setup, decompose, iter;
  };
  Samples all;
  std::vector<Samples> per_input(inputs.size());
  std::set<std::string> engines;
  int failed = warm_up.ok ? 0 : 1;
  for (const OpRecord& r : ops) {
    if (!r.ok) {
      ++failed;
      continue;
    }
    for (Samples* s : {&all, &per_input[r.input]}) {
      s->setup.push_back(r.read_s + r.prepare_s);
      s->decompose.push_back(r.read_s + r.prepare_s + r.cpals_s);
      s->iter.push_back(r.cpals_s / r.iterations);
    }
    engines.insert(r.engine);
  }
  const auto mean_of_medians = [&](std::vector<double> Samples::*field) {
    double sum = 0;
    int n = 0;
    for (const Samples& s : per_input) {
      if ((s.*field).empty()) continue;
      sum += median(s.*field);
      ++n;
    }
    return n ? sum / n : 0.0;
  };

  LayerReport layers;
  if (a.trace) layers = layer_metrics(w, inputs, ops, als_seed, tr, errors);

  double fit_sum = 0;
  for (const Input& in : inputs) fit_sum += in.fit;
  JsonObject e2e;
  e2e.num("setup_s", mean_of_medians(&Samples::setup))
      .num("decompose_s", mean_of_medians(&Samples::decompose))
      .num("iter_s", mean_of_medians(&Samples::iter))
      .num("peak_rss_mib", peak_rss)
      .num("final_fit", fit_sum / static_cast<double>(inputs.size()));
  if (all.decompose.size() >= 100) {
    // The highest percentile with at least ten samples beyond it.
    std::vector<double> sorted = all.decompose;
    std::sort(sorted.begin(), sorted.end());
    e2e.num("decompose_s.p90", sorted[sorted.size() - sorted.size() / 10 - 1]);
  }

  const bool correct = errors.empty();
  JsonObject result;
  result.str("workload", w.name)
      .num("seed", static_cast<double>(a.seed))
      .boolean("trace", a.trace)
      .num("rank", w.rank)
      .num("threads", w.threads)
      .num("iterations", w.iterations)
      .num("inputs", static_cast<double>(inputs.size()))
      .num("attempted", static_cast<double>(ops.size() + 1))
      .num("failed", failed)
      .boolean("correct", correct)
      .raw("errors", string_array(errors))
      .raw("engines", string_array({engines.begin(), engines.end()}))
      .raw("end_to_end", e2e.json());
  if (a.trace) {
    result.raw("per_layer", layers.metrics.json())
        .boolean("replay_bitwise", layers.replay_bitwise)
        .raw("regret_engines", string_array(layers.regret_engines));
  }

  for (const std::string& e : errors) std::cerr << "error: " << e << '\n';
  if (!a.out.empty()) {
    JsonObject samples;
    samples.raw("setup_s", number_array(all.setup))
        .raw("decompose_s", number_array(all.decompose))
        .raw("iter_s", number_array(all.iter));
    JsonObject file = result;
    file.raw("samples", samples.json());
    if (a.trace) file.raw("traceEvents", tr.events_json());
    std::ofstream os(a.out);
    os << file.json() << '\n';
    if (!os) {
      std::cerr << "error: cannot write " << a.out << '\n';
      return 1;
    }
  }
  std::cout << result.json() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mdcp

int main(int argc, char** argv) {
  try {
    const mdcp::Args a = mdcp::parse_args(argc, argv);
    for (const mdcp::Workload& w : mdcp::kWorkloads)
      if (a.workload == w.name) return run(w, a);
    std::cerr << "usage: mdcp_benchmark --workload NAME [--seed S] "
                 "[--seconds T] [--trace] [--out FILE]\nworkloads:";
    for (const mdcp::Workload& w : mdcp::kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
  }
  return 2;
}
