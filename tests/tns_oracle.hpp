// Reference .tns reader for the differential tests: the line-at-a-time
// parser read_tns replaced (std::getline, one staged record per line,
// strtoll/strtod per token). It defines the accepted grammar, the error
// texts and line numbers, and TnsReadStats; read_tns must agree with it on
// every input. The only rule added since is the kMaxOrder bound on the
// number of indices per record.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/tensor_io.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mdcp::oracle {

struct ParsedLine {
  std::vector<index_t> coords;
  real_t value = 0;
};

[[noreturn]] inline void fail_line(std::size_t line_no, const std::string& what,
                                   const std::string& line) {
  std::ostringstream os;
  os << ".tns line " << line_no << ": " << what << " in \"" << line << "\"";
  throw parse_error(os.str(), line_no);
}

// Returns false for blank/comment lines; throws a line-numbered parse_error
// on malformed content.
inline bool parse_line(const std::string& line, std::size_t line_no,
                       ParsedLine& out) {
  const char* p = line.c_str();
  const auto skip_ws = [&p] {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  };
  skip_ws();
  if (*p == '\0' || *p == '#') return false;

  struct Token {
    const char* begin;
    const char* end;
  };
  std::vector<Token> tokens;
  while (*p != '\0') {
    const char* start = p;
    while (*p != '\0' && *p != ' ' && *p != '\t' && *p != '\r') ++p;
    tokens.push_back({start, p});
    skip_ws();
  }
  if (tokens.size() < 2)
    fail_line(line_no, "truncated record (needs >=1 index + value)", line);

  out.coords.clear();
  constexpr unsigned long long kMaxIndex =
      static_cast<unsigned long long>(std::numeric_limits<index_t>::max());
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (i == kMaxOrder)
      fail_line(line_no,
                "more than " + std::to_string(kMaxOrder) +
                    " indices (the maximum tensor order)",
                line);
    const Token& tok = tokens[i];
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(tok.begin, &end, 10);
    if (end != tok.end || end == tok.begin)
      fail_line(line_no, "non-integer index token", line);
    if (errno == ERANGE || v < 1 ||
        static_cast<unsigned long long>(v) > kMaxIndex)
      fail_line(line_no, "index out of range (must be 1-based and fit "
                         "the 32-bit index type)",
                line);
    out.coords.push_back(static_cast<index_t>(v - 1));
  }

  const Token& vtok = tokens.back();
  errno = 0;
  char* vend = nullptr;
  const double value = std::strtod(vtok.begin, &vend);
  if (vend != vtok.end || vend == vtok.begin)
    fail_line(line_no, "non-numeric value token", line);
  if (!std::isfinite(value)) fail_line(line_no, "non-finite value", line);
  out.value = static_cast<real_t>(value);
  return true;
}

inline CooTensor read_tns(std::istream& in, const shape_t& shape_hint = {},
                          const TnsReadOptions& opts = {},
                          TnsReadStats* stats = nullptr) {
  TnsReadStats local;
  TnsReadStats& st = stats != nullptr ? *stats : local;
  st = TnsReadStats{};

  std::vector<ParsedLine> lines;
  std::string line;
  ParsedLine parsed;
  std::size_t arity = 0;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    st.lines_read = line_no;
    if (fault::should_inject(fault::Site::kIo, line_no)) {
      st.truncated = true;
      break;
    }
    bool is_record = false;
    try {
      is_record = parse_line(line, line_no, parsed);
    } catch (const parse_error&) {
      if (opts.strict) throw;
      ++st.skipped_malformed;
      continue;
    }
    if (!is_record) continue;
    if (arity == 0) {
      arity = parsed.coords.size();
    } else if (parsed.coords.size() != arity) {
      if (opts.strict) {
        std::ostringstream os;
        os << ".tns line " << line_no << ": record has "
           << parsed.coords.size() << " indices, expected " << arity;
        throw parse_error(os.str(), line_no);
      }
      ++st.skipped_malformed;
      continue;
    }
    if (!shape_hint.empty()) {
      if (shape_hint.size() != parsed.coords.size())
        fail_line(line_no, "record arity does not match the shape hint", line);
      for (std::size_t m = 0; m < parsed.coords.size(); ++m) {
        if (parsed.coords[m] >= shape_hint[m])
          fail_line(line_no, "index exceeds the shape hint", line);
      }
    }
    lines.push_back(parsed);
  }
  if (arity == 0) throw parse_error(".tns stream contains no nonzeros");
  st.records = lines.size();

  shape_t shape = shape_hint;
  if (shape.empty()) {
    shape.assign(arity, 0);
    for (const auto& l : lines)
      for (std::size_t m = 0; m < arity; ++m)
        shape[m] = std::max(shape[m], l.coords[m] + 1);
  }

  CooTensor t(shape);
  t.reserve(lines.size());
  for (const auto& l : lines) t.push_back(l.coords, l.value);
  return t;
}

}  // namespace mdcp::oracle
