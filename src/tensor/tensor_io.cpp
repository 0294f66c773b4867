#include "tensor/tensor_io.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// Bytes requested from the stream per read. A line longer than the buffer
// grows it, so memory stays at one block plus the longest line.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

constexpr long long kMaxIndex = std::numeric_limits<index_t>::max();

const char* const kIndexRange =
    "index out of range (must be 1-based and fit the 32-bit index type)";
const char* too_many_indices() {
  static const std::string text = "more than " + std::to_string(kMaxOrder) +
                                  " indices (the maximum tensor order)";
  return text.c_str();
}

[[noreturn]] void fail_line(std::size_t line_no, const std::string& what,
                            std::string_view line) {
  std::ostringstream os;
  os << ".tns line " << line_no << ": " << what << " in \"" << line << "\"";
  throw parse_error(os.str(), line_no);
}

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// One record: up to kMaxOrder indices (0-based) and the value.
struct Record {
  std::array<index_t, kMaxOrder> coords{};
  std::size_t order = 0;  ///< 0 for a blank or comment line
  real_t value = 0;
};

// Index token [b, e), followed in memory by a blank or the line's NUL.
// from_chars takes the plain decimal tokens; anything else (a leading
// whitespace character strtoll skips, out-of-range digits) goes to strtoll,
// so the accepted tokens are exactly strtoll's. Returns an error text or
// nullptr.
const char* parse_index(const char* b, const char* e, index_t& out) {
  const bool plus = *b == '+' && e - b > 1 && b[1] >= '0' && b[1] <= '9';
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(b + plus, e, v);
  if (ec != std::errc{} || ptr != e) {
    errno = 0;
    char* end = nullptr;
    v = std::strtoll(b, &end, 10);
    if (end != e || end == b) return "non-integer index token";
    // v itself must fit index_t (not just v-1): the inferred shape stores
    // max(index)+1, which must not wrap.
    if (errno == ERANGE) return kIndexRange;
  }
  if (v < 1 || v > kMaxIndex) return kIndexRange;
  out = static_cast<index_t>(v - 1);
  return nullptr;
}

// Value token [b, e), as parse_index. from_chars rounds like strtod; strtod
// takes the tokens from_chars does not parse whole: a leading '+', hex
// floats, underflow to zero and overflow to infinity.
const char* parse_value(const char* b, const char* e, real_t& out) {
  double v = 0;
  const auto [ptr, ec] = std::from_chars(b, e, v);
  if (ec != std::errc{} || ptr != e) {
    char* end = nullptr;
    v = std::strtod(b, &end);
    if (end != e || end == b) return "non-numeric value token";
  }
  if (!std::isfinite(v)) return "non-finite value";
  out = static_cast<real_t>(v);
  return nullptr;
}

// Field-checked parse of the NUL-terminated line "i1 i2 ... iN v" into rec
// (rec.order = 0 for a blank or comment line). Tokens are checked in order,
// each end to end: trailing garbage, fractional or overflowing indices and
// non-numeric values are errors, not silent truncation. Returns an error
// text or nullptr.
const char* parse_record(const char* p, Record& rec) {
  rec.order = 0;
  while (is_blank(*p)) ++p;
  if (*p == '\0' || *p == '#') return nullptr;
  for (;;) {
    const char* const begin = p;
    while (*p != '\0' && !is_blank(*p)) ++p;
    const char* const end = p;
    while (is_blank(*p)) ++p;
    if (*p == '\0') {  // the last token is the value
      if (rec.order == 0) return "truncated record (needs >=1 index + value)";
      return parse_value(begin, end, rec.value);
    }
    if (rec.order == kMaxOrder) return too_many_indices();
    if (const char* err = parse_index(begin, end, rec.coords[rec.order]))
      return err;
    ++rec.order;
  }
}

// A line parse_record has parsed, kept until the sink takes it.
struct StagedLine {
  Record rec;
  const char* err = nullptr;    ///< parse_record's error text, or nullptr
  const char* begin = nullptr;  ///< the line [begin, end), for messages
  const char* end = nullptr;
};

// Accepts lines one at a time, in line order, and appends the records
// straight into the per-mode index arrays.
class RecordSink {
 public:
  RecordSink(const shape_t& shape_hint, const TnsReadOptions& opts,
             TnsReadStats& st)
      : hint_(shape_hint), opts_(opts), st_(st) {}

  // Line [b, e) with *e == '\0'. Returns false when the fault-injection
  // short read ends the stream here.
  bool line(const char* b, const char* e) {
    return take(b, e, parse_record(b, rec_), rec_);
  }

  // The same for a line parsed ahead.
  bool line(const StagedLine& l) { return take(l.begin, l.end, l.err, l.rec); }

  CooTensor finish() {
    if (idx_.empty()) throw parse_error(".tns stream contains no nonzeros");
    st_.records = vals_.size();
    return CooTensor(hint_.empty() ? std::move(shape_) : hint_,
                     std::move(idx_), std::move(vals_));
  }

 private:
  // Inlined into both callers: the serial read loses about 5% when the
  // per-line call stays out of line.
  MDCP_ALWAYS_INLINE bool take(const char* b, const char* e, const char* err,
                               const Record& rec) {
    ++line_no_;
    st_.lines_read = line_no_;
    // Fault-injection site: simulate a short read (io.lines=N) by ending the
    // stream after N lines; downstream sees an ordinary shorter tensor.
    if (fault::should_inject(fault::Site::kIo, line_no_)) {
      st_.truncated = true;
      return false;
    }
    if (err != nullptr) {
      if (opts_.strict) fail_line(line_no_, err, {b, e});
      ++st_.skipped_malformed;
      return true;
    }
    if (rec.order == 0) return true;
    if (idx_.empty()) {
      idx_.resize(rec.order);
      shape_.assign(rec.order, 0);
    } else if (rec.order != idx_.size()) {
      if (opts_.strict) {
        std::ostringstream os;
        os << ".tns line " << line_no_ << ": record has " << rec.order
           << " indices, expected " << idx_.size();
        throw parse_error(os.str(), line_no_);
      }
      ++st_.skipped_malformed;
      return true;
    }
    if (!hint_.empty()) {
      if (hint_.size() != rec.order)
        fail_line(line_no_, "record arity does not match the shape hint",
                  {b, e});
      for (std::size_t m = 0; m < rec.order; ++m)
        if (rec.coords[m] >= hint_[m])
          fail_line(line_no_, "index exceeds the shape hint", {b, e});
    }
    for (std::size_t m = 0; m < rec.order; ++m) {
      idx_[m].push_back(rec.coords[m]);
      shape_[m] = std::max(shape_[m], rec.coords[m] + 1);
    }
    vals_.push_back(rec.value);
    return true;
  }

  const shape_t& hint_;
  const TnsReadOptions& opts_;
  TnsReadStats& st_;
  std::size_t line_no_ = 0;
  Record rec_;
  shape_t shape_;  // per-mode max index + 1 of the accepted records
  std::vector<std::vector<index_t>> idx_;
  std::vector<real_t> vals_;
};

}  // namespace

CooTensor read_tns(std::istream& in, const shape_t& shape_hint,
                   const TnsReadOptions& opts, TnsReadStats* stats) {
  MDCP_TRACE_SPAN_VAR(span, "io.read", "records");
  TnsReadStats local;
  TnsReadStats& st = stats != nullptr ? *stats : local;
  st = TnsReadStats{};
  RecordSink sink(shape_hint, opts, st);

  // Lines are split as std::getline splits them: at '\n', with a final
  // unterminated line counted when it is not empty. The partial last line
  // of each block moves to the front and the next read completes it.
  // Each block's complete lines are cut into `parts` runs of whole lines.
  // The calling thread hands the first run to the sink line by line, as one
  // thread reads; meanwhile the other runs are parsed into `staged`, which
  // the sink then takes in line order. So line numbers, the first error and
  // the counts are those of a serial read.
  const int parts = num_threads();
  std::vector<char*> cut(parts + 1);             // per run: first byte
  std::vector<std::size_t> first(parts + 1, 0);  // per run: first staged
  std::vector<StagedLine> staged;
  std::size_t cap = kBlockBytes;
  std::vector<char> buf(cap + 1);  // +1: room for the final line's NUL
  std::size_t have = 0;
  bool at_eof = false;
  while (!at_eof) {
    if (have == cap) buf.resize((cap *= 2) + 1);  // one line fills the buffer
    in.read(buf.data() + have, static_cast<std::streamsize>(cap - have));
    const auto got = static_cast<std::size_t>(in.gcount());
    at_eof = have + got < cap;
    have += got;
    char* const begin = buf.data();
    char* const end = begin + have;
    // The block's lines end after its last '\n', or at `end` once the
    // stream has ended.
    char* lines_end = end;
    if (!at_eof) {
      auto* last = static_cast<char*>(memrchr(begin, '\n', have));
      lines_end = last == nullptr ? begin : last + 1;
    }
    cut[0] = begin;
    cut[parts] = lines_end;
    for (int c = 1; c < parts; ++c) {
      char* p = std::max(
          cut[c - 1],
          begin + chunk_range(lines_end - begin, parts, c).begin);
      if (p > begin && p < lines_end && p[-1] != '\n') {
        auto* nl = static_cast<char*>(std::memchr(p, '\n', lines_end - p));
        p = nl == nullptr ? lines_end : nl + 1;
      }
      cut[c] = p;
    }
    // Only the stream's last run can end without a '\n'.
    for (int c = 1; c < parts; ++c)
      first[c + 1] = static_cast<std::size_t>(
          std::count(cut[c], cut[c + 1], '\n') +
          (cut[c + 1] > cut[c] && cut[c + 1][-1] != '\n'));
    for (int c = 1; c < parts; ++c) first[c + 1] += first[c];
    staged.resize(first[parts]);
    bool stopped = false;  // the fault-injection short read ended the stream
    std::exception_ptr failed;
    parallel_chunks(parts, [&](int c) {
      char* p = cut[c];
      char* const run_end = cut[c + 1];
      StagedLine* out = staged.data() + first[c];
      while (p < run_end) {
        auto* nl = static_cast<char*>(std::memchr(p, '\n', run_end - p));
        if (nl == nullptr) nl = run_end;
        *nl = '\0';  // tokens end here, or at an earlier embedded NUL
        if (c == 0) {
          // A strict parse error throws here; it must not leave the team.
          try {
            if (!sink.line(p, nl)) {
              stopped = true;
              return;
            }
          } catch (...) {
            failed = std::current_exception();
            return;
          }
        } else {
          out->err = parse_record(p, out->rec);
          out->begin = p;
          out->end = nl;
          ++out;
        }
        p = nl + 1;
      }
    });
    if (failed) std::rethrow_exception(failed);
    for (std::size_t i = 0; i < staged.size() && !stopped; ++i)
      stopped = !sink.line(staged[i]);
    at_eof = at_eof || stopped;
    have = static_cast<std::size_t>(end - lines_end);
    std::memmove(begin, lines_end, have);
  }

  CooTensor t = sink.finish();
  span.set_arg(static_cast<std::int64_t>(st.records));
  return t;
}

CooTensor read_tns_file(const std::string& path, const shape_t& shape_hint,
                        const TnsReadOptions& opts, TnsReadStats* stats) {
  std::ifstream f(path);
  MDCP_CHECK_MSG(f.good(), "cannot open tensor file: " << path);
  return read_tns(f, shape_hint, opts, stats);
}

void write_tns(std::ostream& out, const CooTensor& tensor) {
  out.precision(17);
  for (nnz_t i = 0; i < tensor.nnz(); ++i) {
    for (mode_t m = 0; m < tensor.order(); ++m)
      out << (tensor.index(m, i) + 1) << ' ';
    out << tensor.value(i) << '\n';
  }
}

void write_tns_file(const std::string& path, const CooTensor& tensor) {
  std::ofstream f(path);
  MDCP_CHECK_MSG(f.good(), "cannot open tensor file for writing: " << path);
  write_tns(f, tensor);
}

}  // namespace mdcp
