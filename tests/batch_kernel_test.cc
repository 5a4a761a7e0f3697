/**
 * @file
 * Equivalence tests for the batched sweep kernels: the fused
 * predictAndUpdate overrides must match the composed
 * predict-then-update discipline record by record, and the
 * multi-geometry kernels must reproduce the per-config sweep
 * bit-identically (labelled "perf" in CTest). The sweep-level
 * comparison over the Figure 10 grid lives in parallel_sweep_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/cpu_features.hh"
#include "core/multi_geom.hh"
#include "core/predictor_factory.hh"
#include "core/stats.hh"
#include "harness/batch_sweep.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep.hh"
#include "tracegen/mixer.hh"

namespace
{

using namespace vpred;

/**
 * A mixed synthetic trace with a tail of adversarial records: raw
 * 64-bit values whose high bits exceed the 32-bit value mask (the
 * fused paths must compare the *raw* actual, like the composed
 * discipline does), aliasing PCs above the l1 mask, and zeros.
 */
ValueTrace
adversarialTrace()
{
    ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 8,
             .constant_instructions = 2,
             .context_instructions = 6,
             .random_instructions = 2,
             .seed = 7},
            8192);
    const Pc high_pc = (Pc{1} << 40) + 3;
    for (std::uint64_t i = 0; i < 64; ++i) {
        trace.push_back({i % 5, (std::uint64_t{0xdead} << 32) + i});
        trace.push_back({high_pc, i * 0x10001});
        trace.push_back({i % 3, 0});
    }
    return trace;
}

/** Configs covering every fused family plus masking edge cases. */
std::vector<PredictorConfig>
fusedFamilyConfigs()
{
    std::vector<PredictorConfig> configs;
    for (PredictorKind kind :
         {PredictorKind::Lvp, PredictorKind::Stride,
          PredictorKind::TwoDelta, PredictorKind::Fcm,
          PredictorKind::Dfcm}) {
        PredictorConfig cfg;
        cfg.kind = kind;
        cfg.l1_bits = 8;
        cfg.l2_bits = 10;
        configs.push_back(cfg);

        cfg.value_bits = 16;  // narrow value mask
        configs.push_back(cfg);
    }
    PredictorConfig narrow;  // narrowed-stride DFCM exercises widen()
    narrow.kind = PredictorKind::Dfcm;
    narrow.l1_bits = 8;
    narrow.l2_bits = 10;
    narrow.stride_bits = 8;
    configs.push_back(narrow);
    return configs;
}

TEST(FusedPredictAndUpdate, MatchesComposedDiscipline)
{
    const ValueTrace trace = adversarialTrace();
    for (const PredictorConfig& cfg : fusedFamilyConfigs()) {
        auto fused = makePredictor(cfg);
        auto composed = makePredictor(cfg);
        SCOPED_TRACE(fused->name());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord& rec = trace[i];
            const bool want = composed->predict(rec.pc) == rec.value;
            composed->update(rec.pc, rec.value);
            const bool got = fused->predictAndUpdate(rec.pc, rec.value);
            ASSERT_EQ(got, want) << "record " << i;
        }
    }
}

TEST(FusedPredictAndUpdate, RunTraceMatchesComposedStats)
{
    const ValueTrace trace = adversarialTrace();
    for (const PredictorConfig& cfg : fusedFamilyConfigs()) {
        auto fused = makePredictor(cfg);
        auto composed = makePredictor(cfg);
        PredictorStats want;
        for (const TraceRecord& rec : trace) {
            want.record(composed->predict(rec.pc) == rec.value);
            composed->update(rec.pc, rec.value);
        }
        EXPECT_EQ(runTrace(*fused, trace), want) << fused->name();
    }
}

/** Per-config reference for one multi-geometry column. */
std::vector<PredictorStats>
referenceColumn(PredictorKind kind, const MultiGeomConfig& geom,
                const ValueTrace& trace)
{
    std::vector<PredictorStats> stats;
    for (unsigned l2 : geom.l2_bits) {
        PredictorConfig cfg;
        cfg.kind = kind;
        cfg.l1_bits = geom.l1_bits;
        cfg.l2_bits = l2;
        cfg.value_bits = geom.value_bits;
        cfg.stride_bits = geom.stride_bits;
        cfg.hash_shift = geom.hash_shift;
        auto p = makePredictor(cfg);
        stats.push_back(runTrace(*p, trace));
    }
    return stats;
}

TEST(MultiGeomKernel, FcmMatchesPerConfig)
{
    const ValueTrace trace = adversarialTrace();
    MultiGeomConfig geom;
    geom.l1_bits = 10;
    geom.l2_bits = harness::paperL2Bits();
    MultiGeomFcmKernel kernel(geom);
    EXPECT_EQ(kernel.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Fcm, geom, trace));
}

TEST(MultiGeomKernel, DfcmMatchesPerConfig)
{
    const ValueTrace trace = adversarialTrace();
    MultiGeomConfig geom;
    geom.l1_bits = 10;
    geom.l2_bits = harness::paperL2Bits();
    MultiGeomDfcmKernel kernel(geom);
    EXPECT_EQ(kernel.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
}

TEST(MultiGeomKernel, NarrowGeometryMatchesPerConfig)
{
    const ValueTrace trace = adversarialTrace();
    MultiGeomConfig geom;
    geom.l1_bits = 6;
    geom.value_bits = 16;
    geom.stride_bits = 8;   // exercises widen() on every column
    geom.hash_shift = 3;    // non-default FS R-k
    geom.l2_bits = {4, 9, 13};
    MultiGeomDfcmKernel dfcm(geom);
    EXPECT_EQ(dfcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
    MultiGeomFcmKernel fcm(geom);
    EXPECT_EQ(fcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Fcm, geom, trace));
}

TEST(MultiGeomKernel, OrderBoundaryShortTrace)
{
    // Two records is fewer than the order-4 history of a 2^20-entry
    // level-2 table: the warm-up phase must agree too.
    const ValueTrace trace = {{1, 42}, {1, 45}};
    MultiGeomConfig geom;
    geom.l1_bits = 4;
    geom.l2_bits = {8, 20};
    MultiGeomFcmKernel fcm(geom);
    MultiGeomDfcmKernel dfcm(geom);
    ASSERT_GE(fcm.maxOrder(), 4u);
    EXPECT_EQ(fcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Fcm, geom, trace));
    EXPECT_EQ(dfcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
    // Repeated runs start from power-on state again.
    EXPECT_EQ(dfcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
}

/** The Figure 10 grid: FCM and DFCM alternating over the l2 column. */
std::vector<PredictorConfig>
fig10Grid()
{
    std::vector<PredictorConfig> configs;
    for (unsigned l2 : harness::paperL2Bits()) {
        PredictorConfig cfg;
        cfg.l1_bits = 16;
        cfg.l2_bits = l2;
        cfg.kind = PredictorKind::Fcm;
        configs.push_back(cfg);
        cfg.kind = PredictorKind::Dfcm;
        configs.push_back(cfg);
    }
    return configs;
}

TEST(MultiGeomKernel, ChunkedFeedMatchesSingleRun)
{
    // The service feeds batches incrementally; any chunking must end
    // in the same state and the same summed stats as one runTrace.
    const ValueTrace trace = adversarialTrace();
    const MultiGeomConfig cfg{.l1_bits = 6,
                              .value_bits = 32,
                              .stride_bits = 32,
                              .hash_shift = 5,
                              .l2_bits = {4, 8, 12}};

    MultiGeomDfcmKernel whole(cfg);
    const std::vector<PredictorStats> ref = whole.runTrace(trace);

    MultiGeomDfcmKernel chunked(cfg);
    chunked.reset();
    std::vector<std::uint64_t> correct(cfg.l2_bits.size(), 0);
    // Deliberately ragged chunk sizes, including empty ones.
    const std::size_t sizes[] = {1, 0, 7, 1024, 3, 4096, 1u << 30};
    std::span<const TraceRecord> rest(trace);
    for (const std::size_t want : sizes) {
        const std::size_t n = std::min(want, rest.size());
        const auto stats = chunked.feedTrace(rest.subspan(0, n));
        for (std::size_t c = 0; c < stats.size(); ++c)
            correct[c] += stats[c].correct;
        rest = rest.subspan(n);
    }
    ASSERT_TRUE(rest.empty());

    for (std::size_t c = 0; c < ref.size(); ++c)
        EXPECT_EQ(correct[c], ref[c].correct) << "column " << c;
    for (std::size_t e = 0; e < whole.l1Entries(); ++e) {
        ASSERT_TRUE(std::ranges::equal(whole.entryHists(e),
                                       chunked.entryHists(e)))
                << "entry " << e;
        ASSERT_EQ(whole.lastValue(e), chunked.lastValue(e))
                << "entry " << e;
    }
}

TEST(MultiGeomKernel, EntryStateExportClearRestoreRoundTrips)
{
    // Snapshot support: an entry's level-1 state (history bank +
    // last value) must survive export -> overwrite with power-on
    // zeros -> reinstall bit-identically.
    const ValueTrace trace = adversarialTrace();
    const MultiGeomConfig cfg{.l1_bits = 5,
                              .value_bits = 32,
                              .stride_bits = 32,
                              .hash_shift = 5,
                              .l2_bits = {6, 10}};
    MultiGeomDfcmKernel kernel(cfg);
    kernel.runTrace(trace);

    for (std::size_t e = 0; e < kernel.l1Entries(); ++e) {
        const std::vector<std::uint32_t> hists(
                kernel.entryHists(e).begin(), kernel.entryHists(e).end());
        const Value last = kernel.lastValue(e);

        kernel.setEntryHists(e, std::vector<std::uint32_t>(hists.size()));
        kernel.setLastValue(e, 0);
        EXPECT_TRUE(std::ranges::all_of(
                kernel.entryHists(e),
                [](std::uint32_t h) { return h == 0; }));
        EXPECT_EQ(kernel.lastValue(e), 0u);

        kernel.setEntryHists(e, hists);
        kernel.setLastValue(e, last);
        EXPECT_TRUE(std::ranges::equal(kernel.entryHists(e), hists));
        EXPECT_EQ(kernel.lastValue(e), last);
    }
}

TEST(MultiGeomKernel, GrowEntriesMatchesKernelBuiltLarger)
{
    // The service's growth path: feed a small bank, double it twice
    // mid-trace, keep feeding. Every existing entry keeps its state
    // and the new ones start at power-on zeros, so stats and every
    // entry bank must equal a kernel built at the final size and fed
    // the same records — on every backend this build carries.
    const ValueTrace trace = adversarialTrace();
    const std::span<const TraceRecord> span(trace);
    const std::size_t third = trace.size() / 3;
    for (const unsigned stride_bits : {32u, 12u}) {
        const MultiGeomConfig small{.l1_bits = 5,
                                    .value_bits = 32,
                                    .stride_bits = stride_bits,
                                    .hash_shift = 5,
                                    .l2_bits = {6, 10, 14}};
        MultiGeomConfig large = small;
        large.l1_bits = 7;
        // Phase k only uses entries the grown-k-times bank has, so the
        // small kernel never aliases a pc the large one keeps apart.
        std::array<ValueTrace, 3> phases;
        for (std::size_t k = 0; k < phases.size(); ++k) {
            const Pc mask = (Pc{1} << (small.l1_bits + k)) - 1;
            for (const TraceRecord& r :
                 span.subspan(k * third, k + 1 < phases.size()
                                                 ? third
                                                 : trace.size() - 2 * third))
                phases[k].push_back({r.pc & mask, r.value});
        }
        for (const SimdBackend backend : availableSimdBackends()) {
            SCOPED_TRACE(std::string(simdBackendName(backend))
                         + " stride_bits " + std::to_string(stride_bits));
            MultiGeomDfcmKernel grown(small);
            MultiGeomDfcmKernel built(large);
            for (std::size_t k = 0; k < phases.size(); ++k) {
                if (k != 0)
                    grown.growEntries();
                EXPECT_EQ(grown.feedTrace(phases[k], backend),
                          built.feedTrace(phases[k], backend))
                        << "phase " << k;
            }
            ASSERT_EQ(grown.l1Entries(), built.l1Entries());
            EXPECT_EQ(grown.config().l1_bits, large.l1_bits);
            for (std::size_t e = 0; e < built.l1Entries(); ++e) {
                ASSERT_TRUE(std::ranges::equal(grown.entryHists(e),
                                               built.entryHists(e)))
                        << "entry " << e;
                ASSERT_EQ(grown.lastValue(e), built.lastValue(e))
                        << "entry " << e;
            }
        }
    }
}

TEST(MultiGeomKernel, FcmChunkedFeedMatchesSingleRun)
{
    const ValueTrace trace = adversarialTrace();
    const MultiGeomConfig cfg{.l1_bits = 6,
                              .value_bits = 32,
                              .stride_bits = 32,
                              .hash_shift = 5,
                              .l2_bits = {4, 10}};
    MultiGeomFcmKernel whole(cfg);
    const std::vector<PredictorStats> ref = whole.runTrace(trace);

    MultiGeomFcmKernel chunked(cfg);
    chunked.reset();
    std::vector<std::uint64_t> correct(cfg.l2_bits.size(), 0);
    const std::size_t half = trace.size() / 2;
    const std::span<const TraceRecord> span(trace);
    for (const auto part : {span.subspan(0, half), span.subspan(half)})
        for (std::size_t c = 0; const PredictorStats& s :
                                chunked.feedTrace(part))
            correct[c++] += s.correct;

    for (std::size_t c = 0; c < ref.size(); ++c)
        EXPECT_EQ(correct[c], ref[c].correct) << "column " << c;
    for (std::size_t e = 0; e < whole.l1Entries(); ++e)
        ASSERT_TRUE(std::ranges::equal(whole.entryHists(e),
                                       chunked.entryHists(e)));
}

TEST(BatchPlan, GroupsFig10GridIntoTwoColumns)
{
    const auto configs = fig10Grid();
    const harness::BatchPlan plan = harness::planBatchSweep(configs);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_TRUE(plan.singles.empty());
    EXPECT_EQ(plan.batchedConfigs(), configs.size());
    for (const harness::BatchGroup& g : plan.groups) {
        EXPECT_EQ(g.geom.l2_bits.size(), harness::paperL2Bits().size());
        for (std::size_t j = 0; j < g.config_indices.size(); ++j) {
            const PredictorConfig& c = configs[g.config_indices[j]];
            EXPECT_EQ(c.kind, g.kind);
            EXPECT_EQ(c.l2_bits, g.geom.l2_bits[j]);
        }
    }
}

TEST(BatchPlan, LeavesUnbatchableConfigsAlone)
{
    std::vector<PredictorConfig> configs = fig10Grid();
    PredictorConfig delayed = configs[0];
    delayed.update_delay = 32;           // wrapped: virtual path
    configs.push_back(delayed);
    PredictorConfig stride;
    stride.kind = PredictorKind::Stride; // no multi-geometry kernel
    configs.push_back(stride);
    PredictorConfig lone = configs[1];
    lone.l1_bits = 4;                    // a one-column group
    configs.push_back(lone);
    PredictorConfig wide = configs[0];
    wide.value_bits = 64;                // wider than narrow storage
    configs.push_back(wide);

    const harness::BatchPlan plan = harness::planBatchSweep(configs);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_EQ(plan.batchedConfigs(), fig10Grid().size());
    EXPECT_EQ(plan.singles.size(), 4u);
}

TEST(BatchSweep, ExecutionReportCoversVirtualPath)
{
    harness::TraceCache cache(0.02);
    harness::ParallelSweep sweep(cache);
    PredictorConfig delayed;
    delayed.kind = PredictorKind::Fcm;
    delayed.l1_bits = 8;
    delayed.l2_bits = 8;
    delayed.update_delay = 16;  // wrapper keeps the virtual path
    const std::vector<std::string> one_workload = {"go"};
    sweep.runGrid({delayed}, one_workload);
    const harness::SweepExecution& e = sweep.lastExecution();
    EXPECT_EQ(e.path(), "virtual");
    EXPECT_EQ(e.cells, 1u);
    EXPECT_EQ(e.virtual_cells, 1u);
    EXPECT_EQ(e.trace_walks, 1u);
    EXPECT_GT(e.wall_seconds, 0.0);
}

} // namespace
