/**
 * @file
 * The fixed-width integer vector layer behind the AVX2 column kernel
 * of the multi-geometry sweeps — and the only file in the repository
 * where raw vendor intrinsics may appear (enforced by the repro-lint
 * rule portability/raw-intrinsic).
 *
 * The kernel needs exactly the operations of the ShiftFoldHash
 * insert, applied to a row of 32-bit lanes with *per-lane* shift
 * distances (each level-2 column has its own FS R-k parameters):
 * load/store, broadcast, XOR, AND-mask, and variable per-lane left /
 * right shifts — plus a read prefetch hint for the table walk. That
 * small surface is provided as `Native`:
 *
 *     using Vec = __m256i;              // 8 x u32 register
 *     static constexpr unsigned kLanes; // 8
 *     static Vec  loadu(const std::uint32_t* p);
 *     static void storeu(std::uint32_t* p, Vec v);
 *     static Vec  broadcast(std::uint32_t x);
 *     static Vec  bxor(Vec a, Vec b);
 *     static Vec  band(Vec a, Vec b);
 *     static Vec  shl(Vec v, Vec counts);  // counts must be < 32
 *     static Vec  shr(Vec v, Vec counts);  // counts must be < 32
 *
 * `Native` exists only where the compiler targets AVX2: in
 * multi_geom_simd_avx2.cc, which src/core/CMakeLists.txt compiles with
 * -mavx2 and the dispatcher in core/multi_geom.cc calls only after the
 * CPUID probe in core/cpu_features.cc. Other includers normally see
 * just prefetchRead() and kMaxSimdLanes.
 *
 * Shift counts >= 32 are the caller's bug (hardware and scalar C++
 * disagree on the semantics); the kernel only ever passes FS R-k
 * parameters, which are bounded by the 28-bit level-2 index width.
 */

#ifndef DFCM_CORE_SIMD_HH
#define DFCM_CORE_SIMD_HH

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace vpred::simd
{

/** Read-prefetch hint: pull the cache line holding @p p toward L1.
 *  Purely advisory; a no-op where the compiler has no intrinsic. */
inline void
prefetchRead(const void* p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
    (void)p;
#endif
}

/** Lanes per history-bank vector. Per-entry history banks are padded
 *  to a multiple of this (core/multi_geom.hh), so the column kernel
 *  processes a bank in whole vectors; the padding is also part of
 *  the service's VPT2 snapshot layout, so it stays fixed at 8
 *  whichever path runs. */
inline constexpr unsigned kMaxSimdLanes = 8;

#if defined(__AVX2__)

struct Native
{
    using Vec = __m256i;
    static constexpr unsigned kLanes = 8;

    static Vec
    loadu(const std::uint32_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void
    storeu(std::uint32_t* p, Vec v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static Vec
    broadcast(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<int>(x));
    }
    static Vec bxor(Vec a, Vec b) { return _mm256_xor_si256(a, b); }
    static Vec band(Vec a, Vec b) { return _mm256_and_si256(a, b); }
    static Vec shl(Vec v, Vec counts)
    {
        return _mm256_sllv_epi32(v, counts);
    }
    static Vec shr(Vec v, Vec counts)
    {
        return _mm256_srlv_epi32(v, counts);
    }
};

static_assert(Native::kLanes == kMaxSimdLanes,
              "one AVX2 vector must cover one bank padding unit");

#endif // __AVX2__

} // namespace vpred::simd

#endif // DFCM_CORE_SIMD_HH
