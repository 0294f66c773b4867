// Text I/O for sparse tensors in the FROSTT `.tns` format:
// one nonzero per line, 1-based indices followed by the value, plus optional
// `#`-comment lines. This is the de-facto interchange format of the sparse
// tensor community (SPLATT, ParTI, FROSTT all read it).
//
// Parsing is field-checked: non-numeric tokens, non-integral or out-of-range
// indices (anything that does not fit index_t), more than kMaxOrder indices,
// inconsistent arity, and truncated records raise a line-numbered
// mdcp::parse_error in strict mode (the default). Non-strict mode skips
// malformed lines and counts them in TnsReadStats instead — for salvaging
// partially corrupt dumps.
//
// Token grammar (unchanged since the reader parsed with strtoll/strtod):
// tokens are separated by spaces, tabs and '\r'; a line ends at '\n' (an
// embedded NUL ends its tokens early); a line whose first non-blank
// character is '#' is a comment. An index token is any base-10 integer strtoll accepts
// whole (leading '+' included); a value token is any number strtod accepts
// whole (hex floats included; underflow gives 0) that is finite. The reader
// parses with std::from_chars in blocks of about 1 MiB and defers to
// strtoll/strtod for a token from_chars does not take whole, so it accepts,
// rejects and rounds every token as those functions do.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "tensor/coo_tensor.hpp"

namespace mdcp {

struct TnsReadOptions {
  /// Strict (default): malformed lines raise mdcp::parse_error carrying the
  /// 1-based line number. Non-strict: malformed lines are skipped and
  /// counted in TnsReadStats::skipped_malformed.
  bool strict = true;
};

/// Per-read accounting, filled when the caller passes a TnsReadStats*.
struct TnsReadStats {
  std::size_t lines_read = 0;         ///< lines consumed (records + comments)
  std::size_t records = 0;            ///< nonzero records accepted
  std::size_t skipped_malformed = 0;  ///< lines dropped (non-strict only)
  /// True when the stream ended early via the fault-injection short-read
  /// site (io.lines=N); downstream code sees an ordinary shorter tensor.
  bool truncated = false;
};

/// Reads a .tns stream. The shape is inferred as the per-mode maximum index
/// unless `shape_hint` is nonempty (then indices are validated against it).
CooTensor read_tns(std::istream& in, const shape_t& shape_hint = {},
                   const TnsReadOptions& opts = {},
                   TnsReadStats* stats = nullptr);

/// Reads a .tns file from disk.
CooTensor read_tns_file(const std::string& path, const shape_t& shape_hint = {},
                        const TnsReadOptions& opts = {},
                        TnsReadStats* stats = nullptr);

/// Writes the tensor in .tns format (1-based indices).
void write_tns(std::ostream& out, const CooTensor& tensor);

void write_tns_file(const std::string& path, const CooTensor& tensor);

}  // namespace mdcp
