// Differential tests of read_tns against the reference line parser in
// tns_oracle.hpp: the corrupt corpus, a table of edge tokens, inputs that
// span several read blocks, and a seeded mutation loop. On every input the
// two readers must give the same tensor bit for bit with the same
// TnsReadStats, or the same error (type, message and line number). read_tns
// parses each block's lines in one run per thread, so every comparison runs
// it at 1, 3 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor_io.hpp"
#include "tns_oracle.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef MDCP_TEST_DATA_DIR
#define MDCP_TEST_DATA_DIR "tests/data"
#endif

namespace mdcp {
namespace {

// read_tns's read size; the block tests put line ends around its multiples.
constexpr std::size_t kBlock = std::size_t{1} << 20;

struct Outcome {
  enum Kind { kTensor, kParseError, kOtherError } kind = kTensor;
  std::string what;
  std::size_t line = 0;
  TnsReadStats stats;
  CooTensor tensor;
};

template <class Reader>
Outcome run(Reader read, const std::string& input, const shape_t& hint,
            bool strict) {
  std::istringstream in(input);
  TnsReadOptions opts;
  opts.strict = strict;
  Outcome o;
  try {
    o.tensor = read(in, hint, opts, &o.stats);
  } catch (const parse_error& e) {
    o.kind = Outcome::kParseError;
    o.what = e.what();
    o.line = e.line;
  } catch (const error& e) {
    o.kind = Outcome::kOtherError;
    o.what = e.what();
  }
  return o;
}

std::string escaped(const std::string& s, std::size_t limit = 240) {
  std::ostringstream os;
  for (std::size_t i = 0; i < s.size() && i < limit; ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c == '\n') os << "\\n";
    else if (c >= 0x20 && c < 0x7f && c != '\\') os << s[i];
    else os << "\\x" << std::hex << static_cast<int>(c) << std::dec;
  }
  if (s.size() > limit) os << "...(" << s.size() << " bytes)";
  return os.str();
}

bool same_bits(const CooTensor& a, const CooTensor& b) {
  if (a.shape() != b.shape() || a.nnz() != b.nnz()) return false;
  for (mode_t m = 0; m < a.order(); ++m)
    if (!std::ranges::equal(a.mode_indices(m), b.mode_indices(m)))
      return false;
  for (nnz_t i = 0; i < a.nnz(); ++i)
    if (std::bit_cast<std::uint64_t>(a.value(i)) !=
        std::bit_cast<std::uint64_t>(b.value(i)))
      return false;
  return true;
}

bool same_stats(const TnsReadStats& a, const TnsReadStats& b) {
  return a.lines_read == b.lines_read && a.records == b.records &&
         a.skipped_malformed == b.skipped_malformed &&
         a.truncated == b.truncated;
}

std::string describe(const Outcome& o) {
  std::ostringstream os;
  if (o.kind == Outcome::kTensor)
    os << "tensor " << o.tensor.summary();
  else
    os << (o.kind == Outcome::kParseError ? "parse_error line " : "error ")
       << o.line << ": " << escaped(o.what);
  os << " | lines_read=" << o.stats.lines_read
     << " records=" << o.stats.records
     << " skipped=" << o.stats.skipped_malformed
     << " truncated=" << o.stats.truncated;
  return os.str();
}

// read_tns at 1, 3 and 4 threads and the oracle agree on `input` in strict
// and non-strict mode.
::testing::AssertionResult agree(const std::string& input,
                                 const shape_t& hint = {}) {
  for (bool strict : {true, false}) {
    const Outcome want = run(
        [](std::istream& in, const shape_t& h, const TnsReadOptions& o,
           TnsReadStats* s) { return oracle::read_tns(in, h, o, s); },
        input, hint, strict);
    for (const int threads : {1, 3, 4}) {
      const ThreadScope scope(threads);
      const Outcome got = run(
          [](std::istream& in, const shape_t& h, const TnsReadOptions& o,
             TnsReadStats* s) { return read_tns(in, h, o, s); },
          input, hint, strict);
      const bool same =
          got.kind == want.kind && got.what == want.what &&
          got.line == want.line && same_stats(got.stats, want.stats) &&
          (got.kind != Outcome::kTensor ||
           same_bits(got.tensor, want.tensor));
      if (!same)
        return ::testing::AssertionFailure()
               << (strict ? "strict" : "non-strict") << " read at "
               << threads << " threads of \"" << escaped(input)
               << "\"\n  read_tns: " << describe(got)
               << "\n  oracle:   " << describe(want);
    }
  }
  return ::testing::AssertionSuccess();
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::vector<std::string> corpus() {
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(MDCP_TEST_DATA_DIR) + "/corrupt"))
    files.push_back(slurp(e.path()));
  return files;
}

TEST(TnsReaderDiff, CorruptCorpus) {
  const auto files = corpus();
  ASSERT_GE(files.size(), 11u);
  for (const std::string& f : files) {
    EXPECT_TRUE(agree(f));
    EXPECT_TRUE(agree(f, shape_t{4, 4, 4}));
    EXPECT_TRUE(agree(f, shape_t{1, 1, 1}));
    EXPECT_TRUE(agree(f, shape_t{9, 9}));
  }
}

const std::vector<std::string> kEdgeTokens = {
    "+1", "0x1p3", "1e-400", "4.9e-324", "1e400", "inf", "nan(1)", "1.", ".5",
    "-0", "4294967295", "4294967296",
    // and their neighbours
    "+", "-", "+-1", "-+1", "++1", "+0", "00001", "-1", "0", "1e", "1e+",
    "0x", "0X1P-2", "0x1p-1075", "0x1.fffffffffffffp1023", "1e-310",
    "2.2250738585072011e-308", "1.7976931348623157e308",
    "1.7976931348623159e308", "-1e-400", "1.5e+3", "INF", "-Infinity",
    "NaN", "nan", "+.5", "+inf", "1_0", "1,5", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "18446744073709551616",
    "0.1000000000000000055511151231257827021181583404541015625",
    "123456789012345678901234567890", "\v5", "\f7", "5\v", "\v", "#5",
    "4294967294", "2147483648", "1.0e0000000000000000000000001"};

TEST(TnsReaderDiff, EdgeTokens) {
  for (const std::string& tok : kEdgeTokens) {
    SCOPED_TRACE("token \"" + escaped(tok) + "\"");
    EXPECT_TRUE(agree("1 1 1.5\n2 " + tok + " 2.5\n3 3 3.5\n"));
    EXPECT_TRUE(agree("1 1 1.5\n2 2 " + tok + "\n3 3 3.5\n"));
    EXPECT_TRUE(agree(tok + " 1 1.0\n2 2 2.0\n"));
    EXPECT_TRUE(agree("1 1 " + tok));
    EXPECT_TRUE(agree("1 1 1.5\n2 " + tok + " 2.5\n", shape_t{5, 5}));
  }
}

TEST(TnsReaderDiff, EdgeTokenValues) {
  // The shared grammar, pinned: these are what both readers must produce.
  const auto value = [](const std::string& tok) {
    std::istringstream in("1 " + tok + "\n");
    return read_tns(in).value(0);
  };
  EXPECT_EQ(value("0x1p3"), 8.0);
  EXPECT_EQ(value("1e-400"), 0.0);
  EXPECT_EQ(value("4.9e-324"), std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::signbit(value("-0")));
  EXPECT_EQ(value("1."), 1.0);
  EXPECT_EQ(value(".5"), 0.5);
  EXPECT_EQ(value("+2.5"), 2.5);
  std::istringstream plus("+1 4294967295 1.0\n");
  const CooTensor t = read_tns(plus);
  EXPECT_EQ(t.index(0, 0), 0u);
  EXPECT_EQ(t.index(1, 0), 4294967294u);
  for (const char* bad : {"1 1e400\n", "1 inf\n", "1 nan(1)\n",
                          "4294967296 1.0\n"}) {
    std::istringstream in(bad);
    EXPECT_THROW(read_tns(in), parse_error) << bad;
  }
}

TEST(TnsReaderDiff, LineShapes) {
  using namespace std::string_literals;
  const std::vector<std::string> inputs = {
      "", "\n", "\n\n\n", "#only a comment", "1 1 1.0\r\n2 2 2.0\r\n",
      "1\t1\t1.0\n\t2 \t2\t\t2.0\t\n", "1 1 1.0\n2 2 2.0",
      "1 1 1.0\n2 2 2.0\n\n", "  # indented\n1 1 1.0\n", "\r\n1 1 1.0\r",
      "1 1 1.0\n2 2\0 garbage 2.0\n3 3 3.0\n"s,
      "1 1 1.0\0\n2 2 2.0\n"s, "\0\n1 1 1.0\n"s, "1 1\0"s, "1 1 1.0\n\0"s,
      "1 1 1.0\n \r \t\n", "1\n", "1 \n", "   \t\r", "#\n#\n1 2\n",
      "1 1 1.0\n1 1 1 1.0\n1 1 2.0\n"};
  for (const std::string& in : inputs) {
    EXPECT_TRUE(agree(in));
    EXPECT_TRUE(agree(in, shape_t{3, 3}));
  }
}

std::string record_of_order(std::size_t order) {
  std::string s;
  for (std::size_t m = 0; m < order; ++m) s += std::to_string(m + 1) + ' ';
  return s + "1.5\n";
}

TEST(TnsReaderDiff, RecordsAboveMaxOrder) {
  for (std::size_t order : {std::size_t{kMaxOrder}, std::size_t{kMaxOrder} + 1,
                            std::size_t{40}}) {
    SCOPED_TRACE("order " + std::to_string(order));
    EXPECT_TRUE(agree(record_of_order(order)));
    EXPECT_TRUE(agree("1 1 1.0\n" + record_of_order(order) + "2 2 2.0\n"));
    EXPECT_TRUE(agree(record_of_order(order) + record_of_order(order)));
    // A bad index token before the 17th index is reported first.
    EXPECT_TRUE(agree("x " + record_of_order(order)));
  }
  std::istringstream in("# header\n" + record_of_order(40));
  try {
    (void)read_tns(in);
    FAIL() << "40 indices accepted";
  } catch (const parse_error& e) {
    EXPECT_EQ(e.line, 2u);
    EXPECT_NE(std::string(e.what()).find("more than 16 indices"),
              std::string::npos)
        << e.what();
  }
}

// ~3 MiB of records with mixed separators, comments and CRLF ends, so many
// lines straddle block boundaries.
std::string big_input(std::uint64_t seed, std::size_t bytes) {
  Rng rng(seed);
  std::string s;
  while (s.size() < bytes) {
    switch (rng.next_below(16)) {
      case 0: s += "# comment " + std::to_string(rng.next_u64()) + "\n"; break;
      case 1: s += "\n"; break;
      default: {
        for (int m = 0; m < 4; ++m) {
          s += std::to_string(1 + rng.next_below(50000));
          s += rng.next_below(8) == 0 ? "\t " : " ";
        }
        std::ostringstream v;
        v.precision(static_cast<int>(1 + rng.next_below(17)));
        v << (rng.next_real() - 0.5) * 1e3;
        s += v.str();
        s += rng.next_below(4) == 0 ? "\r\n" : "\n";
      }
    }
  }
  return s;
}

TEST(TnsReaderDiff, InputsSpanningBlocks) {
  const std::string big = big_input(11, 3 * kBlock + 12345);
  EXPECT_TRUE(agree(big));
  EXPECT_TRUE(agree(big.substr(0, big.size() - 7)));  // cut mid-record
  // One malformed record just past each block boundary.
  for (std::size_t b = 1; b <= 3; ++b) {
    std::string bad = big;
    const std::size_t at = bad.find('\n', b * kBlock) + 1;
    bad.insert(at, "1 2 x 4 5.0\n");
    EXPECT_TRUE(agree(bad)) << "boundary " << b;
  }
}

TEST(TnsReaderDiff, LineEndsAroundTheBlockSize) {
  // A comment line whose '\n' lands a few bytes either side of a block end,
  // then records; in the second variant the record at the seam has the
  // wrong arity, in the third the seam falls inside an unterminated record.
  for (std::size_t block : {kBlock, 2 * kBlock})
    for (std::size_t pad = block - 4; pad <= block + 2; ++pad) {
      const std::string head = "#" + std::string(pad, 'x') + "\n";
      EXPECT_TRUE(agree(head + "1 2 3.0\n4 5 6.0\n")) << pad;
      EXPECT_TRUE(agree(head + "1 2 3 3.0\n4 5 6.0\n")) << pad;
      EXPECT_TRUE(agree("1 1 1.0\n#" + std::string(pad - 8, 'x') +
                        "\n7 8 9.0"))
          << pad;
    }
}

TEST(TnsReaderDiff, LinesLongerThanABlock) {
  const std::string pad(kBlock + kBlock / 2, ' ');
  EXPECT_TRUE(agree("#" + std::string(2 * kBlock + 5, 'c') + "\n1 1 1.0\n"));
  EXPECT_TRUE(agree("1" + pad + "2" + pad + "3.0\n4 5 6.0\n"));
  EXPECT_TRUE(agree("1 2 3.0\n4" + pad + "x 6.0\n"));
  EXPECT_TRUE(agree(std::string(3 * kBlock, '7')));  // one token, no newline
}

TEST(TnsReaderDiff, ErrorsInEveryRunOfABlock) {
  // Malformed records at twelfths of the first block, so that at 3 and at 4
  // threads each run holds some, plus subnormal and boundary values. Strict
  // reads must name the first; non-strict reads must skip them all.
  const std::string big = big_input(23, 2 * kBlock);
  for (const std::size_t k : {1, 2, 3, 5, 6, 8, 9, 11}) {
    std::string one = big;
    const std::size_t at = one.find('\n', k * kBlock / 12) + 1;
    one.insert(at, "1 2 3 4e-310\n5 6 7 x 1.0\n");
    EXPECT_TRUE(agree(one)) << "twelfth " << k;
  }
  std::string many = big;
  for (std::size_t k = 11; k >= 1; --k)
    many.insert(many.find('\n', k * kBlock / 12) + 1, "1 2 3\n");
  EXPECT_TRUE(agree(many));
  EXPECT_TRUE(agree(many, shape_t{50000, 50000, 50000, 50000}));
}

// ---------------------------------------------------------------------------
// Seeded mutation loop: byte flips, insertions, truncations and splices of
// the corpus and the edge inputs. The budget is fixed; every failure names
// its seed and the input.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFuzzSeed = 0x7e5a2026;
constexpr int kFuzzBudget = 3000;

std::string mutate(std::string s, const std::vector<std::string>& pool,
                   Rng& rng) {
  static const std::string kAlphabet = std::string("0123456789 \t\r\n#+-.eExXpP"
                                                   "infaINF\v\f") +
                                       '\0';
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng.next_below(s.size() + 1);
    switch (rng.next_below(6)) {
      case 0:  // flip one byte to an interesting or random character
        if (!s.empty())
          s[std::min(at, s.size() - 1)] =
              rng.next_below(4) == 0
                  ? static_cast<char>(rng.next_below(256))
                  : kAlphabet[rng.next_below(kAlphabet.size())];
        break;
      case 1:  // truncate
        s.resize(at);
        break;
      case 2: {  // splice: our prefix, another input's suffix
        const std::string& o = pool[rng.next_below(pool.size())];
        s = s.substr(0, at) + o.substr(o.empty() ? 0 : rng.next_below(o.size()));
        break;
      }
      case 3:  // insert an edge token
        s.insert(at, kEdgeTokens[rng.next_below(kEdgeTokens.size())]);
        break;
      case 4:  // insert a separator
        s.insert(at, 1, " \t\r\n"[rng.next_below(4)]);
        break;
      default: {  // duplicate a slice
        const std::size_t len = rng.next_below(40);
        s.insert(at, s.substr(at, len));
      }
    }
  }
  return s;
}

TEST(TnsReaderDiff, SeededMutations) {
  std::vector<std::string> pool = corpus();
  pool.push_back("1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n");
  pool.push_back("# c\n1\t2 3.5e-2\r\n2 1 -7\n10 10 0x1p-3\n");
  pool.push_back(record_of_order(kMaxOrder) + record_of_order(kMaxOrder));
  std::cout << "[fuzz] seed " << kFuzzSeed << ", " << kFuzzBudget
            << " mutants\n";
  int failures = 0;
  for (int i = 0; i < kFuzzBudget && failures < 5; ++i) {
    const std::uint64_t seed = kFuzzSeed + static_cast<std::uint64_t>(i);
    Rng rng(seed);
    const std::string& base = pool[rng.next_below(pool.size())];
    const std::string input = mutate(base, pool, rng);
    const shape_t hint =
        rng.next_below(4) == 0 ? shape_t{3, 3, 3} : shape_t{};
    const auto result = agree(input, hint);
    if (!result) ++failures;
    EXPECT_TRUE(result) << "mutant seed " << seed;
  }
}

TEST(TnsReaderDiff, ShortReadFaultAgrees) {
  if (!fault::enabled()) GTEST_SKIP() << "fault injection compiled out";
  // The short read lands in the first run of a block (read line by line)
  // and in later runs (parsed ahead), in the first block and in the second.
  const std::string small = big_input(5, 4096);
  const std::string big = big_input(6, 2 * kBlock);
  for (const auto& [input, lines] :
       {std::pair{&small, 1}, {&small, 2}, {&small, 7}, {&small, 100},
        {&big, 20000}, {&big, 40000}}) {
    fault::SiteConfig cfg;
    cfg.threshold = static_cast<std::uint64_t>(lines);
    fault::FaultPlan::instance().arm(fault::Site::kIo, cfg);
    EXPECT_TRUE(agree(*input)) << "io.lines=" << lines;
    fault::FaultPlan::instance().reset();
  }
}

}  // namespace
}  // namespace mdcp
