// Tests for the observability subsystem: JSON writer correctness, trace-ring
// overflow semantics, tracer export validity under concurrent span recording,
// metrics-registry thread safety, and the run-report JSONL golden schema.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cpals/cp_mu.hpp"
#include "cpals/cpals.hpp"
#include "mttkrp/registry.hpp"
#include "obs/clock.hpp"
#include "obs/flightrec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "tensor/generator.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"

namespace mdcp {
namespace {

// Minimal recursive-descent JSON checker — intentionally independent of
// JsonWriter so the two can't share a bug. Accepts exactly one JSON value.
class JsonChecker {
 public:
  static bool valid(const std::string& s) {
    JsonChecker c(s);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.i_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  bool value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p)
      if (!eat(*p)) return false;
    return true;
  }

  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++i_;
        const char e = peek();
        if (e == 'u') {
          ++i_;
          for (int k = 0; k < 4; ++k)
            if (!std::isxdigit(static_cast<unsigned char>(peek())))
              return false;
            else
              ++i_;
          continue;
        }
        if (std::string("\"\\/bfnrt").find(e) == std::string::npos)
          return false;
        ++i_;
        continue;
      }
      ++i_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = i_;
    eat('-');
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (eat('.'))
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(JsonChecker, SanityOnHandWrittenCases) {
  EXPECT_TRUE(JsonChecker::valid(R"({"a":[1,2.5,-3e4],"b":"x\ny","c":null})"));
  EXPECT_TRUE(JsonChecker::valid("[]"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a" 1})"));
  EXPECT_FALSE(JsonChecker::valid("[1,2"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\":\"\x01\"}"));
}

TEST(JsonWriter, EscapesAndNestsCorrectly) {
  obs::JsonWriter w;
  w.begin_object()
      .kv("plain", "x")
      .kv("quote\"back\\slash", "tab\tnewline\ncr\r")
      .kv("ctrl", std::string("\x01\x1f"))
      .kv("int", -7)
      .kv("u64", std::uint64_t{18446744073709551615ULL})
      .kv("flag", true);
  w.key("arr").begin_array().value(1).value("two").end_array();
  w.key("obj").begin_object().kv("k", 2.5).end_object();
  w.end_object();
  const std::string s = w.str();
  EXPECT_TRUE(JsonChecker::valid(s)) << s;
  EXPECT_NE(s.find(R"("quote\"back\\slash":"tab\tnewline\ncr\r")"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find(R"("ctrl":"\u0001\u001f")"), std::string::npos) << s;
  EXPECT_NE(s.find("18446744073709551615"), std::string::npos) << s;
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_object()
      .kv("nan", std::nan(""))
      .kv("inf", std::numeric_limits<double>::infinity())
      .kv("ok", 1.5)
      .end_object();
  const std::string s = w.str();
  EXPECT_TRUE(JsonChecker::valid(s)) << s;
  EXPECT_NE(s.find(R"("nan":null)"), std::string::npos) << s;
  EXPECT_NE(s.find(R"("inf":null)"), std::string::npos) << s;
}

TEST(Clock, IsMonotonic) {
  std::uint64_t prev = obs::clock_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = obs::clock_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

obs::TraceEvent make_event(int i) {
  obs::TraceEvent ev{};
  std::snprintf(ev.name, sizeof(ev.name), "ev%d", i);
  ev.ts_ns = static_cast<std::uint64_t>(i);
  ev.dur_ns = 1;
  return ev;
}

TEST(TraceRing, OverflowKeepsNewestAndCountsDrops) {
  obs::TraceRing ring(4, /*tid=*/0);
  for (int i = 0; i < 10; ++i) ring.push(make_event(i));
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.kept(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first of the newest four: 6, 7, 8, 9.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(std::string(events[k].name), "ev" + std::to_string(6 + k));
    EXPECT_EQ(events[k].ts_ns, static_cast<std::uint64_t>(6 + k));
  }
}

TEST(TraceRing, NoOverflowKeepsEverythingInOrder) {
  obs::TraceRing ring(8, 1);
  for (int i = 0; i < 5; ++i) ring.push(make_event(i));
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (int k = 0; k < 5; ++k)
    EXPECT_EQ(events[k].ts_ns, static_cast<std::uint64_t>(k));
}

// The tracer is a process-wide singleton; each test re-arms it from a clean
// slate and disables it again so tests stay order-independent.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& t = obs::Tracer::instance();
    t.set_enabled(false);
    t.set_ring_capacity(obs::Tracer::kDefaultRingCapacity);
    t.clear();
  }
  void TearDown() override {
    auto& t = obs::Tracer::instance();
    t.set_enabled(false);
    t.clear();
    t.set_ring_capacity(obs::Tracer::kDefaultRingCapacity);
  }
};

TEST_F(TracerTest, DisabledRecordsNothing) {
  { MDCP_TRACE_SPAN("should.not.appear"); }
  EXPECT_EQ(obs::Tracer::instance().retained_events(), 0u);
}

#if MDCP_ENABLE_TRACING

TEST_F(TracerTest, SpansRecordNamesArgsAndDurations) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  {
    MDCP_TRACE_SPAN("outer", "mode", 3);
    { MDCP_TRACE_SPAN("inner"); }
  }
  tracer.set_enabled(false);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it lands in the ring first.
  EXPECT_EQ(std::string(events[0].name), "inner");
  EXPECT_EQ(std::string(events[1].name), "outer");
  EXPECT_STREQ(events[1].arg_name, "mode");
  EXPECT_EQ(events[1].arg_value, 3);
  EXPECT_GE(events[1].dur_ns, events[0].dur_ns);  // outer encloses inner
}

TEST_F(TracerTest, RingOverflowSurvivesAndReportsDrops) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_ring_capacity(16);
  tracer.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    MDCP_TRACE_SPAN("span", "i", i);
  }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.retained_events(), 16u);
  EXPECT_EQ(tracer.dropped_events(), 84u);
  // The newest spans survive.
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (std::size_t k = 0; k < events.size(); ++k)
    EXPECT_EQ(events[k].arg_value, static_cast<std::int64_t>(84 + k));
  // The export is still valid JSON and mentions the drops.
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("dropped_events"), std::string::npos);
}

TEST_F(TracerTest, ConcurrentSpansExportValidChromeJson) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  constexpr nnz_t kSpans = 2000;
  parallel_for(kSpans, [](nnz_t i) {
    MDCP_TRACE_SPAN("parallel.work", "i", static_cast<std::int64_t>(i));
  });
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.retained_events() + tracer.dropped_events(), kSpans);
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("parallel.work"), std::string::npos);
}

#else  // MDCP_ENABLE_TRACING == 0

TEST_F(TracerTest, CompiledOutMacroRecordsNothingAndSkipsArgEvaluation) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  int evaluations = 0;
  { MDCP_TRACE_SPAN("compiled.out", "i", ++evaluations); }
  tracer.set_enabled(false);
  EXPECT_EQ(evaluations, 0);  // the macro must not evaluate its arguments
  EXPECT_EQ(tracer.retained_events(), 0u);
  // The (empty) export is still valid Chrome trace JSON.
  EXPECT_TRUE(JsonChecker::valid(tracer.to_chrome_json()));
}

#endif  // MDCP_ENABLE_TRACING

TEST(Metrics, CountersAreRaceFreeUnderConcurrentAdds) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("test.race_counter");
  obs::Gauge& g = reg.gauge("test.race_gauge_max");
  c.reset();
  g.reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.add();
        g.record_max(static_cast<double>(t * kAddsPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads * kAddsPerThread - 1));
}

TEST(Metrics, LookupIsStableAndResetKeepsReferences) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& a = reg.counter("test.stable");
  a.add(41);
  obs::Counter& b = reg.counter("test.stable");
  EXPECT_EQ(&a, &b);
  b.add();
  EXPECT_EQ(a.value(), 42u);
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(7);
  EXPECT_EQ(reg.counter("test.stable").value(), 7u);
}

TEST(Metrics, JsonExportIsValid) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("test.json_counter").add(3);
  reg.gauge("test.json_gauge").set(2.5);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos) << json;
}

TEST(HistogramMetric, BucketsQuantilesAndMoments) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log-bucketing at 4 buckets/octave bounds quantile error to ~19%.
  EXPECT_NEAR(h.p50(), 50.0, 50.0 * 0.20);
  EXPECT_NEAR(h.p95(), 95.0, 95.0 * 0.20);
  EXPECT_NEAR(h.p99(), 99.0, 99.0 * 0.20);
  EXPECT_GE(h.p99(), h.p95());
  EXPECT_GE(h.p95(), h.p50());
  // Quantiles never escape the observed range.
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(HistogramMetric, P99SeparatesTailFromBody) {
  // 98 fast samples and 2 slow outliers: p95 stays in the body while p99
  // must land in the tail — the case the p99 column exists for.
  obs::Histogram h;
  for (int i = 0; i < 98; ++i) h.record(0.001);
  h.record(1.0);
  h.record(1.0);
  EXPECT_NEAR(h.p95(), 0.001, 0.001 * 0.20);
  EXPECT_NEAR(h.p99(), 1.0, 1.0 * 0.20);
  EXPECT_GT(h.p99(), h.p95() * 100);
}

TEST(HistogramMetric, ResetAndDegenerateCases) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.record(3.5);
  EXPECT_NEAR(h.quantile(0.5), 3.5, 3.5 * 0.20);
  h.record(0.0);  // non-positive values clamp into the bottom bucket
  h.record(-1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramMetric, ConcurrentRecordLosesNothing) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h = reg.histogram("test.race_histogram");
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 1; i <= kPerThread; ++i)
        h.record(static_cast<double>(i));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kPerThread));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
}

TEST(HistogramMetric, RegistryExportAndReset) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h = reg.histogram("test.json_histogram");
  h.reset();
  h.record(0.001);
  h.record(0.002);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json_histogram\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  reg.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&reg.histogram("test.json_histogram"), &h);  // stable reference
}

TEST(JsonParse, RoundTripsWriterOutput) {
  obs::JsonWriter w;
  w.begin_object().kv("s", "a\"b\\c\n").kv("n", -2.5).kv("b", true);
  w.key("arr").begin_array().value(1).null().value("x").end_array();
  w.key("obj").begin_object().kv("k", std::uint64_t{7}).end_object();
  w.end_object();

  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(w.str(), v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number(), -2.5);
  EXPECT_TRUE(v.find("b")->as_bool());
  const obs::JsonValue* arr = v.find("arr", obs::JsonValue::Kind::kArray);
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items().size(), 3u);
  EXPECT_TRUE(arr->items()[1].is_null());
  EXPECT_EQ(v.find("obj")->find("k")->as_number(), 7.0);
  // Member insertion order is preserved (bench tables diff in emission
  // order).
  EXPECT_EQ(v.members()[0].first, "s");
  EXPECT_EQ(v.members().back().first, "obj");

  // Re-serializing the parsed DOM yields valid JSON that parses identically.
  obs::JsonWriter w2;
  v.write(w2);
  obs::JsonValue v2;
  ASSERT_TRUE(obs::json_parse(w2.str(), v2, &err)) << err;
  EXPECT_EQ(v2.find("s")->as_string(), "a\"b\\c\n");
}

TEST(JsonParse, RejectsMalformedInput) {
  obs::JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::json_parse("{\"a\":1,}", v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(obs::json_parse("[1,2", v));
  EXPECT_FALSE(obs::json_parse("", v));
  EXPECT_FALSE(obs::json_parse("{} extra", v));
  EXPECT_FALSE(obs::json_parse("{\"a\" 1}", v));
  // Depth bomb must be rejected, not crash.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(obs::json_parse(deep, v));
}

TEST(Roofline, AttributionMath) {
  obs::RooflineCeilings c;
  c.fma_gflops = 10.0;
  c.triad_gbps = 20.0;
  c.threads = 1;
  EXPECT_DOUBLE_EQ(c.ridge_intensity(), 0.5);

  obs::RooflineSample s;
  s.seconds = 1.0;
  s.flops = 2e9;       // 2 GFLOP/s achieved
  const auto a = obs::attribute_roofline(s, c);
  EXPECT_DOUBLE_EQ(a.gflops, 2.0);
  EXPECT_DOUBLE_EQ(a.pct_compute, 20.0);
}

TEST(Roofline, CalibrationProducesPositiveCeilings) {
  const auto c = obs::calibrate_roofline(/*seconds_budget=*/0.05);
  EXPECT_GT(c.fma_gflops, 0.0);
  EXPECT_GT(c.triad_gbps, 0.0);
  EXPECT_GT(c.ridge_intensity(), 0.0);
  EXPECT_GE(c.threads, 1);
}

#if MDCP_ENABLE_TRACING

TEST_F(TracerTest, ExportCarriesProcessAndThreadNames) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_process_name("mdcp-test");
  tracer.set_current_thread_name("unit-test-main");
  tracer.set_enabled(true);
  { MDCP_TRACE_SPAN("named.span"); }
  tracer.set_enabled(false);
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("mdcp-test"), std::string::npos) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("unit-test-main"), std::string::npos) << json;
  tracer.set_process_name("mdcp");
}

TEST_F(TracerTest, PhaseSpanCarriesItsArgAndDuration) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  double seconds = 0;
  { obs::Phase phase(obs::FrPhase::kCompute, "phase.span", 2, seconds); }
  tracer.set_enabled(false);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), "phase.span");
  EXPECT_EQ(std::string(events[0].arg_name), "mode");
  EXPECT_EQ(events[0].arg_value, 2);
  // The span and the accumulator got the same duration.
  EXPECT_EQ(seconds, static_cast<double>(events[0].dur_ns) * 1e-9);
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"args\":{\"mode\":2}"), std::string::npos) << json;
}

// Every dense step and fit of a CP-ALS run is one Phase, so the trace and
// the result report the same seconds: the summed spans of each step equal
// its CpAlsResult field, and the summed mttkrp:* spans equal the run's
// kernel numeric seconds (1 ns of rounding allowed per span).
TEST_F(TracerTest, PhaseSpansAddUpToTheResult) {
  const auto tensor = generate_uniform({20, 24, 28, 16}, 600, 11);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  opt.engine = "auto";
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  const CpAlsResult res = cp_als(tensor, opt);
  tracer.set_enabled(false);
  const auto events = tracer.snapshot();

  struct Spans {
    double seconds = 0;
    std::uint64_t count = 0;
  };
  const auto spans = [&](const std::string& prefix, bool exact) {
    std::uint64_t ns = 0;
    Spans out;
    for (const auto& ev : events) {
      const std::string name(ev.name);
      if (exact ? name == prefix : name.rfind(prefix, 0) == 0) {
        ns += ev.dur_ns;
        ++out.count;
      }
    }
    out.seconds = static_cast<double>(ns) * 1e-9;
    return out;
  };
  const std::pair<const char*, double> steps[] = {
      {"cpals.hadamard", res.hadamard_seconds},
      {"cpals.solve", res.solve_seconds},
      {"cpals.normalize", res.normalize_seconds},
      {"cpals.gram", res.gram_seconds},
      {"cpals.fit", res.fit_seconds},
  };
  for (const auto& [name, seconds] : steps) {
    const Spans s = spans(name, /*exact=*/true);
    EXPECT_GT(s.count, 0u) << name;
    EXPECT_NEAR(s.seconds, seconds, static_cast<double>(s.count) * 1e-9)
        << name;
  }
  const Spans mttkrp = spans("mttkrp:", /*exact=*/false);
  EXPECT_EQ(mttkrp.count, res.kernel_stats.compute_calls);
  EXPECT_NEAR(mttkrp.seconds, res.kernel_stats.numeric_seconds,
              static_cast<double>(mttkrp.count) * 1e-9);
}

#endif  // MDCP_ENABLE_TRACING

// Each logical engine call is instrumented once, wrappers included: over a
// CP-ALS run the kernel.* metric deltas equal the run's KernelStats, and the
// trace and the flight recorder hold one mttkrp:* span and one
// compute-begin event per compute.
TEST_F(TracerTest, EveryEngineIsInstrumentedOnce) {
  const auto tensor = generate_uniform({20, 24, 28, 16}, 600, 11);
  auto& metrics = obs::MetricsRegistry::instance();
  obs::Counter& flops = metrics.counter("kernel.flops");
  obs::Counter& computes = metrics.counter("kernel.compute_calls");
  obs::Counter& prepares = metrics.counter("kernel.prepare_calls");
  auto& tracer = obs::Tracer::instance();
  auto& recorder = obs::FlightRecorder::instance();
  for (const auto& name : EngineRegistry::instance().names()) {
    CpAlsOptions opt;
    opt.rank = 4;
    opt.max_iterations = 3;
    opt.tolerance = 0;
    opt.engine = name;
    tracer.clear();
    recorder.reset();
    const std::uint64_t flops0 = flops.value();
    const std::uint64_t computes0 = computes.value();
    const std::uint64_t prepares0 = prepares.value();
    tracer.set_enabled(true);
    const CpAlsResult res = cp_als(tensor, opt);
    tracer.set_enabled(false);
    const KernelStats& k = res.kernel_stats;
    EXPECT_EQ(k.compute_calls, 12u) << name;
    EXPECT_EQ(flops.value() - flops0, k.flops) << name;
    EXPECT_EQ(computes.value() - computes0, k.compute_calls) << name;
    EXPECT_EQ(prepares.value() - prepares0, k.prepare_calls) << name;

    std::uint64_t begins = 0;
    for (const auto& ev : recorder.snapshot_events())
      if (ev.kind == obs::FrEvent::kComputeBegin) ++begins;
    EXPECT_EQ(begins, k.compute_calls) << name;
#if MDCP_ENABLE_TRACING
    std::uint64_t spans = 0;
    for (const auto& ev : tracer.snapshot())
      if (std::string(ev.name).rfind("mttkrp:", 0) == 0) ++spans;
    EXPECT_EQ(spans, k.compute_calls) << name;
#endif
  }
}

TEST(Report, TensorFingerprintIsContentSensitive) {
  const auto a = generate_uniform({10, 12, 14}, 200, 5);
  const auto b = generate_uniform({10, 12, 14}, 200, 5);
  const auto c = generate_uniform({10, 12, 14}, 200, 6);
  EXPECT_EQ(obs::tensor_fingerprint(a), obs::tensor_fingerprint(b));
  EXPECT_NE(obs::tensor_fingerprint(a), obs::tensor_fingerprint(c));
}

// Golden-schema check: a real cp_als run with a reporter attached must emit
// a header, one record per iteration, and a summary — every line valid JSON
// with the documented required keys.
TEST(Report, RunReportMatchesGoldenSchema) {
  const auto tensor = generate_uniform({20, 24, 28, 16}, 600, 11);

  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  opt.tolerance = 0;  // fixed iteration count
  opt.seed = 99;
  opt.engine = "dtree-bdt";
  // The sweep driver writes the same records for ALS and MU.
  for (const bool mu : {false, true}) {
    const std::string path = ::testing::TempDir() +
                             (mu ? "/mdcp_test_report_mu.jsonl"
                                 : "/mdcp_test_report.jsonl");
    {
      obs::RunReporter reporter(path);
      ASSERT_TRUE(reporter.ok());
      reporter.write_header(tensor, "test_obs golden", 1);
      opt.reporter = &reporter;
      const auto result = mu ? cp_mu(tensor, opt) : cp_als(tensor, opt);
      EXPECT_EQ(result.iterations, 3);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) lines.push_back(line);
    ASSERT_EQ(lines.size(), 5u);  // header + 3 iterations + summary

    const auto has_keys = [](const std::string& line,
                             const std::vector<std::string>& keys) {
      for (const auto& k : keys)
        if (line.find("\"" + k + "\"") == std::string::npos) return false;
      return true;
    };
    for (const auto& line : lines) {
      EXPECT_TRUE(JsonChecker::valid(line)) << line;
      EXPECT_NE(line.find("\"schema\":\"mdcp-run-report/1\""),
                std::string::npos)
          << line;
    }
    EXPECT_TRUE(has_keys(lines[0],
                         {"type", "command", "compiler", "build_type", "order",
                          "shape", "nnz", "fingerprint", "kernel_threads",
                          "report_version", "host", "kernel_isa"}))
        << lines[0];
    EXPECT_NE(lines[0].find("\"type\":\"header\""), std::string::npos);
    // The header names the kernel variant this process runs.
    EXPECT_NE(lines[0].find(std::string("\"kernel_isa\":\"") +
                            isa::name(isa::dispatched()) + "\""),
              std::string::npos)
        << lines[0];
    for (int it = 1; it <= 3; ++it) {
      const std::string& line = lines[static_cast<std::size_t>(it)];
      EXPECT_TRUE(has_keys(
          line, {"iter", "fit", "fit_delta", "mttkrp_seconds", "dense_seconds",
                 "hadamard_seconds", "solve_seconds", "normalize_seconds",
                 "gram_seconds", "fit_seconds", "mttkrp_mode_seconds",
                 "memo_hits", "memo_misses", "kernel"}))
          << line;
      EXPECT_NE(line.find("\"type\":\"iteration\""), std::string::npos);
      EXPECT_NE(line.find("\"iter\":" + std::to_string(it)), std::string::npos);
    }
    EXPECT_TRUE(has_keys(lines[4],
                         {"engine", "rank", "plan_source", "iterations",
                          "converged", "final_fit", "total_seconds",
                          "mttkrp_seconds", "dense_seconds", "hadamard_seconds",
                          "solve_seconds", "normalize_seconds", "gram_seconds",
                          "mttkrp_mode_quantiles",
                          "engine_peak_memory_bytes", "memo_hits_total",
                          "memo_misses_total", "workspace_thread_peak_bytes"}))
        << lines[4];
    // Quantile objects carry the p50/p95/p99 trio per mode.
    EXPECT_NE(lines[4].find("\"p99\""), std::string::npos) << lines[4];
    // A fixed engine is not model-driven.
    EXPECT_NE(lines[4].find("\"plan_source\":\"fixed\""), std::string::npos)
        << lines[4];
    EXPECT_NE(lines[4].find("\"type\":\"summary\""), std::string::npos);
  }
}

}  // namespace
}  // namespace mdcp
