// Load-time ISA dispatch for the hot per-thread kernel loops.
//
// The library is compiled for the baseline ISA of its target (SSE2 on
// x86-64), so it runs on any CPU of that architecture. Three loops carry
// most of the vector work of an ALS iteration: the dimension-tree TTMV
// accumulate (dtree/numeric.cpp), the block Gram with its fused normalize
// (la/blas.cpp) and the row-tiled Cholesky substitution (la/cholesky.cpp).
// Each is written once as an MDCP_ALWAYS_INLINE body with no OpenMP region
// inside and compiled twice: in a plain wrapper for the baseline ISA and in
// an MDCP_TARGET_AVX2 wrapper. The kernel's parallel region calls the
// selected wrapper through a function pointer once per tile or block.
//
// The split matters: GCC outlines a `#pragma omp parallel` body once, for
// the baseline, even when the region sits in an always_inline body inlined
// into a target function, and helpers called out of line from a cloned
// function stay baseline code. Only code inlined into the target wrapper
// itself is compiled for AVX2, so everything a variant body calls per
// element must be always_inline. Whole translation units are never built
// with -mavx2: inline header functions would become AVX COMDAT copies that
// the linker may hand to baseline callers.
//
// Both variants do the same arithmetic in the same order: every loop is
// parallel across lanes and never reassociated, and the files are compiled
// with -ffp-contract=off so the AVX2 variant, which has FMA, does not fuse
// a multiply and an add (src/CMakeLists.txt). The variants are bitwise
// equal; tests/test_isa.cpp compares them by memcmp.
//
// dispatched() picks the variant once per process with
// __builtin_cpu_supports. There is no option or environment variable; the
// kernels' internal `variant` parameters exist for those tests.
#pragma once

#include "util/error.hpp"

namespace mdcp::isa {

// MDCP_ALWAYS_INLINE marks functions and MDCP_INLINE_LAMBDA lambdas (after
// the parameter list) that a variant body calls per element.
#if defined(__GNUC__) || defined(__clang__)
#define MDCP_ALWAYS_INLINE inline __attribute__((always_inline))
#define MDCP_INLINE_LAMBDA __attribute__((always_inline))
#else
#define MDCP_ALWAYS_INLINE inline
#define MDCP_INLINE_LAMBDA
#endif

// MDCP_ISA_AVX2 is 1 where the AVX2 variants are compiled: x86-64 with GCC
// or Clang function attributes. Elsewhere MDCP_TARGET_AVX2 is empty, the
// "AVX2" wrapper is a second baseline copy, and pick() never selects it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MDCP_ISA_AVX2 1
#define MDCP_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define MDCP_ISA_AVX2 0
#define MDCP_TARGET_AVX2
#endif

/// A compiled kernel variant.
enum class Isa {
  kBaseline,  ///< the ISA the library is built for
  kAvx2,      ///< AVX2 + FMA (FMA unused: contraction is off)
};

/// "baseline" or "avx2".
constexpr const char* name(Isa v) noexcept {
  return v == Isa::kAvx2 ? "avx2" : "baseline";
}

/// True when variant `v` is compiled in and this CPU can run it.
inline bool supported(Isa v) noexcept {
  if (v == Isa::kBaseline) return true;
#if MDCP_ISA_AVX2
  // libgcc's detection also checks that the OS saves the YMM state.
  // __builtin_cpu_init makes the check valid even in a static constructor
  // that runs before libgcc's own.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// The variant every kernel runs: the widest one supported, chosen on
/// first use and fixed for the life of the process.
inline Isa dispatched() noexcept {
  static const Isa v = supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return v;
}

/// The wrapper compiled for variant `v`. Throws mdcp::error when this CPU
/// cannot run `v`.
template <class Fn>
Fn pick(Isa v, Fn baseline, Fn avx2) {
  if (v == Isa::kBaseline) return baseline;
  MDCP_CHECK_MSG(dispatched() == Isa::kAvx2,
                 "the AVX2 kernel variant needs a CPU with AVX2 and FMA");
  return avx2;
}

}  // namespace mdcp::isa
