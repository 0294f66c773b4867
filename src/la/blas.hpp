// Hand-rolled dense kernels sized for CP-ALS: tall-skinny Gram products,
// tiny R×R algebra, Hadamard products, and column normalization. Every
// entry point runs under FlushSubnormals (util/fpenv.hpp). The Gram block
// body is compiled for the baseline ISA and for AVX2, picked once at load
// (util/isa.hpp); both give the same bits.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace mdcp {

/// Rows per Gram block. The blocks are fixed (independent of the thread
/// count and of any row set), accumulated in parallel and reduced in block
/// order, so every Gram below is bitwise deterministic.
inline constexpr index_t kGramBlock = 2048;

/// out = A^T A (out is cols×cols, symmetric). Parallel over row blocks.
void gram(const Matrix& a, Matrix& out);

/// out = A^T A over the listed rows only (RowSet): each block walks just
/// its listed rows. Equals gram(a, out) bit for bit when the unlisted rows
/// are +0.
void gram(const Matrix& a, RowSet rows, Matrix& out);

/// Returns A^T A.
Matrix gram(const Matrix& a);

/// C = A * B (dimensions must agree). Straightforward ikj loop; A is
/// typically I×R and B is R×R in CP-ALS.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& c);
Matrix multiply(const Matrix& a, const Matrix& b);

/// a <- a ∘ b (elementwise).
void hadamard_inplace(Matrix& a, const Matrix& b);

/// Elementwise product of a list of same-shape matrices.
Matrix hadamard_all(const std::vector<const Matrix*>& ms);

/// Normalizes each column of `a` to unit 2-norm; returns the norms.
/// Zero columns get norm 0 and are left untouched (caller may reinitialize).
std::vector<real_t> column_normalize(Matrix& a);

/// The 2-norm of each column over the listed rows: one serial pass in row
/// order, so the norms equal column_normalize's bit for bit when the
/// unlisted rows are +0.
std::vector<real_t> column_norms(const Matrix& a, RowSet rows);

/// The second half of column_normalize fused with gram: one parallel pass
/// over the Gram blocks divides each listed row by `norms` (columns of norm
/// 0 are left as they are) and accumulates out = A^T A from the divided
/// rows. With norms = column_norms(a, rows), `a` and `out` equal
/// column_normalize(a) followed by gram(a, out) bit for bit when the
/// unlisted rows are +0.
void normalize_gram(Matrix& a, RowSet rows, const std::vector<real_t>& norms,
                    Matrix& out);

/// <a, b> = sum_ij a_ij b_ij.
real_t dot(const Matrix& a, const Matrix& b);

namespace detail {

/// gram(a, rows, out) and normalize_gram(a, rows, norms, out) run on the
/// named compiled kernel variant (util/isa.hpp). The public functions run
/// isa::dispatched(); these exist so tests can compare the variants.
void gram(const Matrix& a, RowSet rows, Matrix& out, isa::Isa variant);
void normalize_gram(Matrix& a, RowSet rows, const std::vector<real_t>& norms,
                    Matrix& out, isa::Isa variant);

}  // namespace detail

}  // namespace mdcp
