/**
 * @file
 * Oracle tests for the flat analysis-path tables: AliasAnalyzer and
 * IdealContextPredictor against the reference copies in
 * reference_analysis.hh, bit for bit, over the geometries and hashes
 * the figure drivers use and beyond.
 *
 * The mixed trace is a third random records, so every form and order
 * materializes over 100k distinct contexts and the flat tables grow
 * many times from their initial size.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/alias_analysis.hh"
#include "core/ideal_context_predictor.hh"
#include "reference_analysis.hh"
#include "tracegen/mixer.hh"
#include "workloads/workload.hh"

namespace vpred
{
namespace
{

const ValueTrace&
mixedTrace()
{
    static const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 16,
             .constant_instructions = 4,
             .context_instructions = 8,
             .random_instructions = 14,
             .seed = 2001},
            300000);
    return trace;
}

const ValueTrace&
paperTrace()
{
    static const ValueTrace trace =
            workloads::runWorkload("li", 0.1).trace;
    return trace;
}

void
expectSameBreakdown(const AliasBreakdown& fast, const AliasBreakdown& ref)
{
    for (unsigned t = 0; t < kAliasTypeCount; ++t) {
        const AliasType type = static_cast<AliasType>(t);
        EXPECT_EQ(fast[type].predictions, ref[type].predictions)
                << aliasTypeName(type);
        EXPECT_EQ(fast[type].correct, ref[type].correct)
                << aliasTypeName(type);
    }
}

/** Run both analyzers over @p trace; their taxonomies and the
 *  classification and prediction they would make next must agree. */
void
expectAliasMatchesReference(const FcmConfig& cfg, bool differential,
                            std::span<const TraceRecord> trace)
{
    AliasAnalyzer fast(cfg, differential);
    reference::AliasAnalyzer ref(cfg, differential);
    expectSameBreakdown(fast.run(trace), ref.run(trace));
    for (Pc pc = 0; pc < 64; ++pc) {
        EXPECT_EQ(fast.classify(pc), ref.classify(pc)) << "pc " << pc;
        EXPECT_EQ(fast.predictValue(pc), ref.predictValue(pc))
                << "pc " << pc;
    }
}

/** The fused walk, the fast class's own predict/update path and the
 *  reference must agree on stats, contexts and next predictions. */
void
expectIdealMatchesReference(unsigned l1_bits, unsigned order,
                            bool differential,
                            std::span<const TraceRecord> trace)
{
    IdealContextPredictor fused(l1_bits, order, differential);
    IdealContextPredictor split(l1_bits, order, differential);
    reference::IdealContextPredictor ref(l1_bits, order, differential);

    const PredictorStats fused_stats = runTrace(fused, trace);
    PredictorStats split_stats, ref_stats;
    for (const TraceRecord& rec : trace) {
        split_stats.record(split.predict(rec.pc) == rec.value);
        split.update(rec.pc, rec.value);
        ref_stats.record(ref.predict(rec.pc) == rec.value);
        ref.update(rec.pc, rec.value);
    }
    EXPECT_EQ(ref_stats.predictions, trace.size());
    EXPECT_EQ(fused_stats.predictions, ref_stats.predictions);
    EXPECT_EQ(fused_stats.correct, ref_stats.correct);
    EXPECT_EQ(split_stats.correct, ref_stats.correct);
    EXPECT_EQ(fused.contextCount(), ref.contextCount());
    EXPECT_EQ(split.contextCount(), ref.contextCount());
    EXPECT_EQ(fused.storageBits(), ref.storageBits());
    for (Pc pc = 0; pc < 64; ++pc) {
        EXPECT_EQ(fused.predict(pc), ref.predict(pc)) << "pc " << pc;
        EXPECT_EQ(split.predict(pc), ref.predict(pc)) << "pc " << pc;
    }
}

/** (l1_bits, l2_bits, FS R-k shift, differential). */
using AliasParam = std::tuple<unsigned, unsigned, unsigned, bool>;

class AliasOracle : public ::testing::TestWithParam<AliasParam>
{
};

TEST_P(AliasOracle, MatchesReferenceOnMixedTrace)
{
    const auto [l1, l2, shift, differential] = GetParam();
    FcmConfig cfg;
    cfg.l1_bits = l1;
    cfg.l2_bits = l2;
    cfg.hash = ShiftFoldHash::fsRk(l2, shift);
    expectAliasMatchesReference(cfg, differential, mixedTrace());
}

// FS R-1 at l2 = 8/12/16 gives orders 8/12/16; FS R-5 gives 2/3/4.
INSTANTIATE_TEST_SUITE_P(
        Geometries, AliasOracle,
        ::testing::Combine(::testing::Values(4u, 10u, 16u),
                           ::testing::Values(8u, 12u, 16u),
                           ::testing::Values(5u, 1u), ::testing::Bool()));

/** (l1_bits, order, differential). */
using IdealParam = std::tuple<unsigned, unsigned, bool>;

class IdealOracle : public ::testing::TestWithParam<IdealParam>
{
};

TEST_P(IdealOracle, MatchesReferenceOnMixedTrace)
{
    const auto [l1, order, differential] = GetParam();
    expectIdealMatchesReference(l1, order, differential, mixedTrace());
}

// The orders FS R-5 and FS R-1 give at l2 = 8, 12 and 16.
INSTANTIATE_TEST_SUITE_P(
        Geometries, IdealOracle,
        ::testing::Combine(::testing::Values(4u, 10u, 16u),
                           ::testing::Values(2u, 3u, 4u, 8u, 12u, 16u),
                           ::testing::Bool()));

TEST(AnalysisOracle, MixedTraceMaterializesOver100kContexts)
{
    // The premise of the oracle suites above: the flat tables grow
    // far beyond their initial 1024 slots in every form.
    for (const bool differential : {false, true}) {
        for (const unsigned order : {2u, 16u}) {
            IdealContextPredictor p(16, order, differential);
            runTrace(p, mixedTrace());
            EXPECT_GE(p.contextCount(), 100000u)
                    << "order " << order << " differential "
                    << differential;
        }
    }
}

TEST(AnalysisOracle, MatchesReferenceOnPaperTrace)
{
    // Figure 13's geometry and the ideal-hash ablation's order at
    // l2 = 2^12, on a reduced-scale paper benchmark.
    FcmConfig cfg;
    cfg.l1_bits = 12;
    cfg.l2_bits = 12;
    for (const bool differential : {false, true}) {
        expectAliasMatchesReference(cfg, differential, paperTrace());
        expectIdealMatchesReference(16, 3, differential, paperTrace());
    }
}

} // namespace
} // namespace vpred
