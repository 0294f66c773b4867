// Scoped flush-to-zero for the floating-point kernels.
//
// ALS iterates drift toward zero in many entries: on clustered 5-mode inputs
// most factor entries fall below 1e-100 within a few sweeps, so a product of
// four or five of them lands in the subnormal range (below DBL_MIN ≈
// 2.2e-308). On x86 every multiply or add that makes or reads a subnormal
// takes a microcode assist, which can double the cost of an MTTKRP. Every
// kernel therefore runs with MXCSR's FTZ (bit 15) and DAZ (bit 6) set:
// results below DBL_MIN become 0 and subnormal inputs read as 0.
//
// The setting is scoped per call and per thread. FlushSubnormals saves the
// calling thread's two bits, sets them and puts the saved bits back on exit;
// the exception status flags the scope raised stay raised, as after any
// arithmetic. It sits at each public layer entry (MttkrpEngine::compute, the
// la/blas and la/cholesky kernels, fit_from_parts) and at the top of every
// OpenMP parallel body, so a kernel's bits depend only on its inputs — not
// on the caller's MXCSR or on the thread count — and the caller's control
// bits are never changed. A worker thread starts with the MXCSR of the
// thread that created it, so workers the OpenMP runtime creates inside a
// kernel keep both bits between kernels; that changes nothing inside the
// library. x87 arithmetic (the long-double MTTKRP oracle of the tests) is
// not governed by MXCSR. Off x86 the type does nothing.
#pragma once

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

namespace mdcp {

/// MXCSR flush-to-zero (0x8000) | denormals-are-zero (0x0040).
inline constexpr unsigned kFlushSubnormalBits = 0x8040;

/// RAII: FTZ|DAZ on the calling thread for the enclosing scope. A scope
/// entered with both bits already set writes nothing.
class FlushSubnormals {
 public:
  FlushSubnormals() noexcept {
#if defined(__SSE2__)
    const unsigned csr = _mm_getcsr();
    saved_ = csr & kFlushSubnormalBits;
    if (saved_ != kFlushSubnormalBits) _mm_setcsr(csr | kFlushSubnormalBits);
#endif
  }
  ~FlushSubnormals() {
#if defined(__SSE2__)
    if (saved_ != kFlushSubnormalBits)
      _mm_setcsr((_mm_getcsr() & ~kFlushSubnormalBits) | saved_);
#endif
  }
  FlushSubnormals(const FlushSubnormals&) = delete;
  FlushSubnormals& operator=(const FlushSubnormals&) = delete;

 private:
  [[maybe_unused]] unsigned saved_ = kFlushSubnormalBits;  ///< bits on entry
};

}  // namespace mdcp
