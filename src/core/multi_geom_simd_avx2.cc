/**
 * @file
 * The AVX2 column-parallel multi-geometry kernel: 8 level-2 columns'
 * hashed histories advance per vector op, and the per-lane variable
 * shifts (vpsllvd/vpsrlvd) map the FS R-k parameter vectors straight
 * onto hardware. Compiled with -mavx2 by src/core/CMakeLists.txt and
 * only ever *called* after the runtime CPUID probe in
 * core/cpu_features.cc says the machine executes AVX2.
 *
 * Per record the kernel does what the scalar reference in
 * core/multi_geom.cc does, in the same observable order, but with the
 * per-column work rearranged for the vector unit:
 *
 *   1. scalar: level-1 lookup (entry index, last value, new stride),
 *      shared by all columns;
 *   2. scalar per column: level-2 probe against the raw 64-bit
 *      actual, then the store of the masked value / narrowed stride —
 *      the tables are separately sized so the lanes have no common
 *      gather base, and keeping the probe scalar keeps the expression
 *      textually identical to the per-config predictAndUpdate;
 *   3. vector: advance all padded_n hashed histories at once —
 *      h' = ((h << shift) ^ (fold(v) & fold_mask)) & index_mask with
 *      per-lane constants, the fold unrolled to the shared worst-case
 *      chunk count;
 *   4. prefetch: the next record's level-1 bank line and the level-2
 *      slots its (now final) hashes will probe.
 *
 * Why 32-bit lanes reproduce the 64-bit scalar hash exactly: the
 * inserted value is masked to value_bits <= 32 bits, so the fold's
 * running value always fits a lane and dies to zero after its own
 * column's ceil(value_bits / fold_bits) chunks — running every lane
 * for the shared worst case only XORs zeros into the early-finishing
 * columns. The only intermediate that can exceed 32 bits in the
 * reference is h << shift (h < 2^28, shift <= 28); its bits >= 32
 * are discarded by the <= 28-bit index mask, which is exactly what
 * the truncating lane shift discards.
 */

#include "core/multi_geom_simd.hh"
#include "core/simd.hh"

#if !defined(__AVX2__)
#error "multi_geom_simd_avx2.cc must be compiled with -mavx2"
#endif

namespace vpred::detail
{

namespace
{

template <bool kDfcm, bool kWiden>
void
runMgColumns(const MgSimdView& v, std::span<const TraceRecord> trace)
{
    using Ops = simd::Native;
    using Vec = Ops::Vec;
    const std::size_t n = v.n;
    const std::size_t pn = v.padded_n;
    const std::size_t size = trace.size();

    // The record walk, parameterized over how the bank's hashed
    // histories advance. Everything else — the scalar level-1 work,
    // the per-column probes in per-config order, the prefetches — is
    // identical for both advance strategies below.
    const auto walk = [&](auto&& advance) {
        for (std::size_t i = 0; i < size; ++i) {
            const TraceRecord& rec = trace[i];
            const std::size_t idx = rec.pc & v.l1_mask;
            std::uint32_t* bank = v.hists + idx * pn;

            // Start pulling the next record's history bank now so its
            // level-1 latency hides under this record's table probes.
            std::size_t nidx = idx;
            if (i + 1 < size) {
                nidx = trace[i + 1].pc & v.l1_mask;
                simd::prefetchRead(v.hists + nidx * pn);
            }

            const Value masked = rec.value & v.value_mask;
            Value last = 0;
            Value inserted = masked;
            if constexpr (kDfcm) {
                last = v.last[idx];
                inserted = (masked - last) & v.value_mask;
            }

            // Scalar per-column probe/update, the per-config rule
            // verbatim: compare against the raw actual, store the
            // masked value (FCM) or the narrowed stride (DFCM).
            for (std::size_t c = 0; c < n; ++c) {
                std::uint32_t* slot = v.l2[c] + bank[c];
                if constexpr (kDfcm) {
                    Value stored = Value{*slot};
                    if constexpr (kWiden)
                        stored = signExtend(stored, v.stride_bits)
                                & v.value_mask;
                    v.correct[c] +=
                            ((last + stored) & v.value_mask)
                            == rec.value;
                    *slot = static_cast<std::uint32_t>(inserted
                                                       & v.stride_mask);
                } else {
                    v.correct[c] += Value{*slot} == rec.value;
                    *slot = static_cast<std::uint32_t>(masked);
                }
            }

            // Vector history advance over the whole padded bank. The
            // probes above already consumed the pre-update hashes, so
            // the new ones can be written in place.
            advance(bank,
                    Ops::broadcast(static_cast<std::uint32_t>(inserted)));

            if constexpr (kDfcm)
                v.last[idx] = masked;

            // The next record's hashes are final now (even when it
            // maps to the bank just updated): prefetch the level-2
            // slots it will probe — but only for the columns whose
            // tables are too big to stay cache-resident (the view's
            // precomputed list).
            if (i + 1 < size) {
                const std::uint32_t* nbank = v.hists + nidx * pn;
                for (std::size_t j = 0; j < v.n_prefetch; ++j) {
                    const std::uint32_t c = v.prefetch_cols[j];
                    simd::prefetchRead(v.l2[c] + nbank[c]);
                }
            }
        }
    };

    if (pn == Ops::kLanes) {
        // One vector covers the whole bank (the paper's 7-column
        // fig-10 sweep on a 256-bit backend): hoist the per-lane
        // FS R-k parameter vectors out of the record loop. The
        // compiler cannot do this itself — the in-place history
        // stores may alias the parameter arrays as far as it knows.
        const Vec sh = Ops::loadu(v.shifts);
        const Vec fb = Ops::loadu(v.fold_bits);
        const Vec fm = Ops::loadu(v.fold_masks);
        const Vec im = Ops::loadu(v.index_masks);
        walk([&](std::uint32_t* bank, Vec vin) {
            Vec f = Ops::broadcast(0);
            Vec t = vin;
            for (unsigned k = 0; k < v.chunks; ++k) {
                f = Ops::bxor(f, t);
                t = Ops::shr(t, fb);
            }
            const Vec nh = Ops::band(
                    Ops::bxor(Ops::shl(Ops::loadu(bank), sh),
                              Ops::band(f, fm)),
                    im);
            Ops::storeu(bank, nh);
        });
        return;
    }

    walk([&](std::uint32_t* bank, Vec vin) {
        for (std::size_t b = 0; b < pn; b += Ops::kLanes) {
            const Vec fb = Ops::loadu(v.fold_bits + b);
            Vec f = Ops::broadcast(0);
            Vec t = vin;
            for (unsigned k = 0; k < v.chunks; ++k) {
                f = Ops::bxor(f, t);
                t = Ops::shr(t, fb);
            }
            const Vec nh = Ops::band(
                    Ops::bxor(Ops::shl(Ops::loadu(bank + b),
                                       Ops::loadu(v.shifts + b)),
                              Ops::band(f, Ops::loadu(v.fold_masks + b))),
                    Ops::loadu(v.index_masks + b));
            Ops::storeu(bank + b, nh);
        }
    });
}

} // namespace

void
runMgColumnsAvx2(const MgSimdView& view,
                 std::span<const TraceRecord> trace)
{
    // Route the runtime FCM/DFCM and stride-width flags to the right
    // compile-time instantiation.
    if (view.dfcm) {
        if (view.widen)
            runMgColumns<true, true>(view, trace);
        else
            runMgColumns<true, false>(view, trace);
    } else {
        runMgColumns<false, false>(view, trace);
    }
}

} // namespace vpred::detail
