/**
 * @file
 * Interface between the MultiGeom{Fcm,Dfcm}Kernel dispatchers and the
 * AVX2 column kernel (multi_geom_simd_avx2.cc).
 *
 * MgSimdView is a flattened, pointer-only snapshot of one kernel's
 * state: the padded per-entry history bank, the per-column FS R-k
 * parameters as structure-of-arrays (one u32 per lane, padded with
 * inert values), the level-2 table pointers, and the accumulators.
 * The AVX2 translation unit — compiled with -mavx2 — sees only this
 * POD and core/simd.hh, so the kernel classes never need the flag.
 *
 * All u32 lane arithmetic is exact with respect to the 64-bit scalar
 * reference because every quantity is bounded: inserted values are
 * masked to value_bits <= 32, hashes to the <= 28-bit level-2 index
 * width, and fold/shift distances to < 32 (see the proof sketch in
 * multi_geom_simd_avx2.cc). Bit-identity against the scalar path is
 * asserted over the full Figure 10 grid in tests/simd_kernel_test.cc.
 */

#ifndef DFCM_CORE_MULTI_GEOM_SIMD_HH
#define DFCM_CORE_MULTI_GEOM_SIMD_HH

#include <cstdint>
#include <span>

#include "core/types.hh"

namespace vpred::detail
{

/** Flattened multi-geometry kernel state for one runTrace() call. */
struct MgSimdView
{
    std::uint32_t* hists;    //!< l1Entries x padded_n history bank
    std::size_t n;           //!< real column count
    std::size_t padded_n;    //!< bank stride, multiple of kMaxSimdLanes

    std::uint64_t l1_mask;
    std::uint64_t value_mask;
    std::uint64_t stride_mask;  //!< DFCM stored-stride mask
    unsigned stride_bits;       //!< DFCM stored-stride width
    unsigned chunks;            //!< shared worst-case fold chunk count

    /** Level-2 table base pointer per real column. */
    std::uint32_t* const* l2;

    // Per-lane FS R-k parameters, padded_n entries each; the padding
    // lanes hold inert values (shift 0, fold_bits 1, masks 0).
    const std::uint32_t* shifts;
    const std::uint32_t* fold_bits;
    const std::uint32_t* fold_masks;
    const std::uint32_t* index_masks;

    std::uint64_t* correct;  //!< n correct-prediction counters
    Value* last;             //!< DFCM: last value per level-1 entry
    bool dfcm = false;       //!< DFCM rule (vs. FCM)
    bool widen = false;      //!< DFCM: stride_bits < value_bits

    /**
     * Columns worth software-prefetching: indices of the columns
     * whose level-2 table exceeds the cache-resident threshold
     * (kPrefetchMinL2Bytes in multi_geom.cc). Small tables live in
     * cache after warm-up, so prefetching them is pure issue
     * overhead; big tables miss on nearly every probe.
     */
    const std::uint32_t* prefetch_cols = nullptr;
    std::size_t n_prefetch = 0;
};

// Defined by src/core/CMakeLists.txt exactly when it adds the AVX2
// translation unit to the build.
#if defined(VPRED_HAS_AVX2_KERNEL)
void runMgColumnsAvx2(const MgSimdView& view,
                      std::span<const TraceRecord> trace);
#endif

} // namespace vpred::detail

#endif // DFCM_CORE_MULTI_GEOM_SIMD_HH
