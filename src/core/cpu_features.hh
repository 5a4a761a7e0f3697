/**
 * @file
 * Runtime SIMD capability detection for the multi-geometry sweep
 * kernels.
 *
 * The kernels in core/multi_geom.cc have one scalar reference
 * implementation plus one AVX2 column kernel (core/simd.hh and
 * multi_geom_simd_avx2.cc). Whether AVX2 can run is a *build*
 * question (did CMake add the AVX2 TU?) and a *machine* question
 * (does this CPU execute AVX2?); this header answers both once per
 * process and exposes the answer to the kernels, the harness (BENCH
 * JSON "execution" reporting) and the tests.
 *
 * The kernels dispatch to bestSimdBackend(). The AVX2 kernel is
 * bit-identical to the scalar path (asserted in
 * tests/simd_kernel_test.cc), so the choice never changes figure
 * output — only throughput. Tests and benches pin a backend through
 * the explicit runTrace(trace, backend) overloads.
 */

#ifndef DFCM_CORE_CPU_FEATURES_HH
#define DFCM_CORE_CPU_FEATURES_HH

#include <vector>

namespace vpred
{

/** An implementation of the multi-geometry kernels. */
enum class SimdBackend
{
    Scalar,  //!< reference implementation, always available
    Avx2,    //!< x86-64 with AVX2, 256-bit lanes
};

/** Short lowercase name: "scalar" or "avx2". */
const char* simdBackendName(SimdBackend backend);

/** Integer vector width in bits (64 for scalar: one u32 pair of
 *  work per "vector" is how the reference loop retires state). */
unsigned simdVectorBits(SimdBackend backend);

/**
 * Backends that are compiled into this binary *and* supported by the
 * running CPU, widest last. Always contains SimdBackend::Scalar.
 * The CPU probe runs once (cached); the result never changes during
 * a process lifetime.
 */
const std::vector<SimdBackend>& availableSimdBackends();

/** True iff @p backend is in availableSimdBackends(). */
bool simdBackendAvailable(SimdBackend backend);

/** The widest available backend: what the kernels dispatch to. */
SimdBackend bestSimdBackend();

} // namespace vpred

#endif // DFCM_CORE_CPU_FEATURES_HH
