/**
 * @file
 * SIMD-vs-scalar bit-identity for the multi-geometry kernels: the
 * AVX2 column kernel, wherever this build and CPU carry it
 * (core/cpu_features.hh), must reproduce the scalar reference path
 * exactly — over the full Figure 10 l2 column on all paper workloads
 * (reduced trace scale, CTest label "perf") and over randomized
 * geometries with a fixed-seed fuzzer.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/cpu_features.hh"
#include "core/multi_geom.hh"
#include "core/stats.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "tracegen/mixer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace vpred;

/** Backends to test against the scalar reference: everything this
 *  build carries beyond Scalar itself. */
std::vector<SimdBackend>
vectorBackends()
{
    std::vector<SimdBackend> out;
    for (SimdBackend b : availableSimdBackends())
        if (b != SimdBackend::Scalar)
            out.push_back(b);
    return out;
}

void
expectBackendsMatchScalar(const MultiGeomConfig& geom,
                          std::span<const TraceRecord> trace)
{
    MultiGeomFcmKernel fcm(geom);
    MultiGeomDfcmKernel dfcm(geom);
    const std::vector<PredictorStats> fcm_ref =
            fcm.runTrace(trace, SimdBackend::Scalar);
    const std::vector<PredictorStats> dfcm_ref =
            dfcm.runTrace(trace, SimdBackend::Scalar);
    // The default dispatch (bestSimdBackend()) is one of the backends
    // below or the scalar path itself; it must agree either way.
    EXPECT_EQ(fcm.runTrace(trace), fcm_ref);
    EXPECT_EQ(dfcm.runTrace(trace), dfcm_ref);
    for (SimdBackend b : vectorBackends()) {
        SCOPED_TRACE(std::string("backend ") + simdBackendName(b));
        EXPECT_EQ(fcm.runTrace(trace, b), fcm_ref);
        EXPECT_EQ(dfcm.runTrace(trace, b), dfcm_ref);
    }
}

TEST(SimdKernel, BuildCarriesAtLeastTheScalarBackend)
{
    const std::vector<SimdBackend> all = availableSimdBackends();
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(all.front(), SimdBackend::Scalar);
    // Widest last: the dispatcher's default choice.
    EXPECT_EQ(bestSimdBackend(), all.back());
    for (SimdBackend b : all)
        EXPECT_GE(simdVectorBits(b), 64u);
}

TEST(SimdKernel, Fig10ColumnBitIdenticalOnAllPaperWorkloads)
{
    // The full Figure 10 geometry (l1=16, the whole l2 column) on
    // every paper workload, at a reduced trace scale so the suite
    // stays a fast smoke test.
    harness::TraceCache cache(0.1);
    MultiGeomConfig geom;
    geom.l1_bits = 16;
    geom.l2_bits = harness::paperL2Bits();
    for (const std::string& name : workloads::benchmarkNames()) {
        SCOPED_TRACE("workload " + name);
        expectBackendsMatchScalar(geom, cache.getSpan(name));
    }
}

TEST(SimdKernel, RandomizedGeometryFuzzMatchesScalar)
{
    // Fixed seed: the fuzz cases are deterministic across runs.
    std::mt19937 rng(0xD5C3);
    const auto pick = [&rng](unsigned lo, unsigned hi) {
        return lo + static_cast<unsigned>(rng() % (hi - lo + 1));
    };
    for (int iter = 0; iter < 12; ++iter) {
        MultiGeomConfig geom;
        geom.l1_bits = pick(2, 12);
        geom.value_bits = pick(8, 32);
        geom.stride_bits = pick(1, geom.value_bits);
        geom.hash_shift = pick(1, 7);
        geom.l2_bits.resize(pick(1, 9));
        for (unsigned& l2 : geom.l2_bits)
            l2 = pick(1, 22);

        ValueTrace trace = tracegen::makeMixedTrace(
                {.stride_instructions = pick(1, 12),
                 .constant_instructions = pick(1, 6),
                 .context_instructions = pick(1, 8),
                 .random_instructions = pick(0, 3),
                 .seed = 1000 + static_cast<std::uint64_t>(iter)},
                4096);
        // Adversarial tail: raw values above the value mask, PCs
        // above the l1 mask, zeros.
        for (std::uint64_t i = 0; i < 32; ++i) {
            trace.push_back({i % 7, (std::uint64_t{0xbeef} << 32) + i});
            trace.push_back({(Pc{1} << 50) + i, i * 0x9001});
            trace.push_back({i % 3, 0});
        }

        SCOPED_TRACE("fuzz iteration " + std::to_string(iter));
        expectBackendsMatchScalar(geom, {trace.data(), trace.size()});
    }
}

TEST(SimdKernel, UnavailableBackendFallsBackToScalar)
{
    // Requesting the AVX2 kernel where this build or CPU cannot run it
    // must quietly take the scalar path, not crash or change results;
    // where AVX2 runs, the request must still match scalar exactly.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 4,
             .constant_instructions = 2,
             .context_instructions = 2,
             .random_instructions = 1,
             .seed = 5},
            2048);
    MultiGeomConfig geom;
    geom.l1_bits = 6;
    geom.l2_bits = {8, 12};
    MultiGeomFcmKernel kernel(geom);
    EXPECT_EQ(kernel.runTrace({trace.data(), trace.size()},
                              SimdBackend::Avx2),
              kernel.runTrace({trace.data(), trace.size()},
                              SimdBackend::Scalar));
}

} // namespace
