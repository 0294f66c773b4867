// Nonnegative CP decomposition via multiplicative updates (Frobenius loss).
//
// The Lee–Seung NMF update generalized to tensors (Welling & Weber):
//
//   U⁽ⁿ⁾ ← U⁽ⁿ⁾ ∘ M⁽ⁿ⁾ ⊘ (U⁽ⁿ⁾ H⁽ⁿ⁾ + ε)
//
// with M⁽ⁿ⁾ the MTTKRP and H⁽ⁿ⁾ = ∘_{i≠n} U⁽ⁱ⁾ᵀU⁽ⁱ⁾. Starting from strictly
// positive factors on a nonnegative tensor, every iterate stays nonnegative
// and the Frobenius objective is non-increasing. Included because the
// paper's memoized-MTTKRP machinery applies verbatim to any algorithm with
// MTTKRP at its core — this is the canonical second consumer. It runs on
// cp_als's sweep driver with its own per-mode update step, so it also
// writes the run report, honours cancel and the watchdog, recovers from
// non-finite updates and feeds the history store.
#pragma once

#include "cpals/cpals.hpp"

namespace mdcp {

/// Runs multiplicative-update nonnegative CP. Requires all tensor values
/// >= 0 (throws otherwise). Returns the same result structure as cp_als;
/// `options.nonnegative` is implied and ignored, and so is `options.ridge`.
CpAlsResult cp_mu(const CooTensor& tensor, const CpAlsOptions& options);

/// Same, with a caller-provided (reusable) MTTKRP engine.
CpAlsResult cp_mu(const CooTensor& tensor, MttkrpEngine& engine,
                  const CpAlsOptions& options);

}  // namespace mdcp
