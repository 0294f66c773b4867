// Over-aligned heap allocation for numeric containers.
//
// The SIMD microkernel layer (mttkrp/microkernel.hpp) assumes its
// accumulator pointers sit on 64-byte boundaries. Workspace slabs already
// guarantee that; this allocator extends the guarantee to la::Matrix row
// storage (and any other std::vector of reals on the numeric path), so the
// base pointer of every factor matrix, output matrix, and partial slab is a
// valid aligned-load target.
//
// A size-only growth (`std::vector(n)`, `resize(n)`) default-initialises its
// new elements, which for real_t leaves them unspecified rather than zero, so
// a kernel that writes every element before reading it pays no fill pass.
// Growth with a value (`std::vector(n, v)`, `assign(n, v)`) still writes v.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace mdcp {

/// Alignment (bytes) shared by workspace slabs, matrix storage, and the
/// microkernel's assume_aligned contract: one x86 cache line / AVX-512
/// vector.
inline constexpr std::size_t kNumericAlignment = 64;

/// Minimal C++17-style allocator that over-aligns every allocation.
template <typename T, std::size_t Alignment = kNumericAlignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of 2");

  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  constexpr AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  /// Default-initialises: a size-only growth leaves reals unspecified.
  template <typename U>
  void construct(U* p) noexcept(noexcept(::new(static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// Value storage for dense numeric containers on the microkernel path. A
/// size-only construction or resize leaves the new elements unspecified.
using aligned_real_vector = std::vector<real_t, AlignedAllocator<real_t>>;

}  // namespace mdcp
