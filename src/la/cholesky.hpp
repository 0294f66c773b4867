// Symmetric positive-(semi)definite solves for the CP-ALS normal equations.
//
// Each sub-iteration solves U = M · H⁺ where H = ∘_{i≠n} (Uᵢᵀ Uᵢ) is R×R and
// symmetric PSD. We attempt a Cholesky solve first (fast path); if H is
// merely rank-deficient we retry with an escalating ridge λ·I (standard ALS
// practice), then fall back to the Moore–Penrose pseudo-inverse built from a
// Jacobi eigendecomposition. A non-finite H is a distinct, unrecoverable
// condition — no amount of regularization repairs a NaN Gram matrix — so it
// is reported as its own status and solve_normal_equations raises a typed
// mdcp::numeric_error that the CP-ALS recovery path converts into a factor
// restart.
//
// The substitution is row-tiled: kCholeskyLanes right-hand-side rows are
// loaded transposed into one per-thread R×kCholeskyLanes tile, so the row
// index becomes the SIMD lane and each of the ~2R² multiply-subtracts runs
// across independent rows instead of down one row's serial dependency chain.
// Every row still sees exactly the per-row operation sequence of the textbook
// loop (s = x[i]; s -= l(i,k)·x[k] for k ascending; x[i] = s / l(i,i), then
// the mirror for Lᵀ, true division), lanes never interact, and lanes past the
// last row are zero-padded (zeros solve to zeros). A tile may gather any
// ascending set of rows (RowSet): CP-ALS solves only the rows of nonempty
// slices. The result is therefore
// bitwise identical to the per-row loop for any tile width and any thread
// count. The substitution is compiled for the baseline ISA and for AVX2,
// picked once at load (util/isa.hpp). la/cholesky.cpp is compiled with
// -ffp-contract=off so both, and any FMA target, round alike
// (src/CMakeLists.txt). The factorization, the substitution and the solves
// run under FlushSubnormals (util/fpenv.hpp).
#pragma once

#include "la/matrix.hpp"
#include "util/isa.hpp"

namespace mdcp {

/// Outcome of a Cholesky factorization attempt. Distinguishes "H is not SPD"
/// (recoverable: ridge or pseudo-inverse) from "H contains non-finite
/// values" (unrecoverable by regularization: the caller must rebuild its
/// inputs).
enum class CholeskyStatus {
  kOk = 0,
  kNotSpd,    ///< a non-positive (but finite) pivot appeared
  kNanInput,  ///< a pivot evaluated to NaN/Inf — the input is poisoned
};

/// In-place lower Cholesky factorization A = L·Lᵀ (only the lower triangle of
/// the output is meaningful). On a non-kOk status the matrix is left
/// partially factorized and must be discarded.
CholeskyStatus cholesky_factor_status(Matrix& a);

/// Back-compat predicate: cholesky_factor_status(a) == kOk.
bool cholesky_factor(Matrix& a);

/// Right-hand-side rows per substitution tile (the SIMD lane count). Fixed,
/// so the tiling never depends on the thread count; 16 measured fastest at
/// R ∈ {10, 16, 32} on both baseline x86-64 and AVX-512 code generation.
inline constexpr index_t kCholeskyLanes = 16;

/// Solves L·Lᵀ·x = b for each row b of `rhs_rows` (i.e. computes rhs·A⁻¹ for
/// symmetric A given its Cholesky factor L). rhs_rows is I×R, modified
/// in place. Returns true when every solved value is finite.
bool cholesky_solve_rows(const Matrix& l, Matrix& rhs_rows);

/// How solve_normal_equations obtained its result — consumed by the CP-ALS
/// recovery accounting and the run reporter.
struct SolveInfo {
  CholeskyStatus cholesky = CholeskyStatus::kOk;  ///< first, un-ridged attempt
  int ridge_retries = 0;     ///< escalating-λ retries performed
  double ridge_lambda = 0;   ///< the λ that succeeded (0 = none needed)
  bool used_pseudo_inverse = false;
  bool finite = true;        ///< every value written into X is finite
};

/// Computes X = M · H⁺ robustly: Cholesky when H is SPD, escalating-ridge
/// Cholesky when it is rank-deficient, pseudo-inverse as the last resort.
/// `h` is R×R symmetric, `m` is I×R. Writes X (I×R) into `x`, which is
/// resized only when its shape differs from `m`'s (so a caller can solve
/// straight into a factor matrix without a fresh allocation); `x` must not
/// alias `m`. Fills `*info` (when given) with the path taken and whether X
/// is finite. Throws mdcp::numeric_error if `h` is non-finite — see
/// CholeskyStatus::kNanInput.
void solve_normal_equations(const Matrix& h, const Matrix& m, Matrix& x,
                            SolveInfo* info = nullptr);

/// Row-set form of the above: solves only the listed rows of M into the
/// same rows of `x`, which must already have m's shape; the other rows of
/// `x` are left as they are. Every listed row gets exactly the bits the
/// all-rows call gives it, on every path (`info->finite` covers the listed
/// rows). A +0 row of M solves to a +0 row, so when M's unlisted rows are
/// +0 and `x`'s are too, `x` equals the all-rows result bit for bit.
void solve_normal_equations(const Matrix& h, const Matrix& m, RowSet rows,
                            Matrix& x, SolveInfo* info = nullptr);

/// Returning form of the above: X = M · H⁺ as a new matrix.
Matrix solve_normal_equations(const Matrix& h, const Matrix& m,
                              SolveInfo* info = nullptr);

namespace detail {

/// The row-tiled substitution behind the solves, on the named compiled
/// kernel variant (util/isa.hpp): solves L·Lᵀ·x = b for every listed row of
/// `b` (I×R, R = l.rows()) into the same row of `x` (same shape; may be
/// `b`). Returns true when every value written is finite. The public solves
/// run isa::dispatched(); this exists so tests can compare the variants.
bool solve_rows_into(const Matrix& l, const Matrix& b, RowSet rows, Matrix& x,
                     isa::Isa variant);

}  // namespace detail

}  // namespace mdcp
