/**
 * @file
 * Unit tests for the Figure 12-14 aliasing taxonomy.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/alias_analysis.hh"
#include "core/dfcm_predictor.hh"
#include "tracegen/mixer.hh"
#include "tracegen/pattern.hh"

namespace vpred
{
namespace
{

FcmConfig
config(unsigned l1_bits = 8, unsigned l2_bits = 12)
{
    FcmConfig cfg;
    cfg.l1_bits = l1_bits;
    cfg.l2_bits = l2_bits;
    return cfg;
}

TEST(AliasAnalyzer, L1ConflictDetected)
{
    // Two PCs that collide in a tiny level-1 table: each sees
    // history elements written by the other.
    AliasAnalyzer a(config(2), /*differential=*/false);
    a.step(1, 100);
    a.step(5, 200);  // 5 & 3 == 1: same level-1 entry
    EXPECT_EQ(a.classify(1), AliasType::L1);
}

TEST(AliasAnalyzer, NoAliasOnPrivatePattern)
{
    // One instruction, large tables: after warm-up the taxonomy
    // settles into "none" (or the benign l2_pc never fires since
    // there is a single pc).
    AliasAnalyzer a(config(8, 12), false);
    for (int lap = 0; lap < 40; ++lap)
        for (Value v : {3u, 9u, 27u, 81u})
            a.step(7, v);
    EXPECT_EQ(a.classify(7), AliasType::None);
}

TEST(AliasAnalyzer, L2PcSharingDetected)
{
    // Two PCs in *different* level-1 entries producing identical
    // histories share level-2 entries: benign l2_pc aliasing.
    AliasAnalyzer a(config(8, 12), false);
    for (int lap = 0; lap < 40; ++lap) {
        for (Value v : {3u, 9u, 27u, 81u}) {
            a.step(7, v);
            a.step(8, v);
        }
    }
    // pc 7's entry was last updated by pc 8 (interleaved pattern).
    EXPECT_EQ(a.classify(7), AliasType::L2Pc);
}

TEST(AliasAnalyzer, FunctionalTablesMatchRealFcm)
{
    // The instrumented predictor must predict exactly like the plain
    // FCM on any trace.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 6,
             .constant_instructions = 2,
             .context_instructions = 4,
             .random_instructions = 1,
             .seed = 7},
            20000);

    FcmPredictor fcm(config(8, 12));
    AliasAnalyzer analyzer(config(8, 12), false);
    for (const TraceRecord& rec : trace) {
        ASSERT_EQ(analyzer.predictValue(rec.pc), fcm.predict(rec.pc));
        analyzer.step(rec.pc, rec.value);
        fcm.update(rec.pc, rec.value);
    }
}

TEST(AliasAnalyzer, FunctionalTablesMatchRealDfcm)
{
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 8,
             .constant_instructions = 2,
             .context_instructions = 4,
             .random_instructions = 1,
             .seed = 11},
            20000);

    DfcmPredictor dfcm({.l1_bits = 8, .l2_bits = 12});
    AliasAnalyzer analyzer(config(8, 12), true);
    for (const TraceRecord& rec : trace) {
        ASSERT_EQ(analyzer.predictValue(rec.pc), dfcm.predict(rec.pc));
        analyzer.step(rec.pc, rec.value);
        dfcm.update(rec.pc, rec.value);
    }
}

TEST(AliasAnalyzer, BreakdownCountsEveryPrediction)
{
    const ValueTrace trace = tracegen::makeMixedTrace({.seed = 3},
                                                      15000);
    AliasAnalyzer a(config(8, 12), false);
    const AliasBreakdown b = a.run(trace);
    EXPECT_EQ(b.total().predictions, trace.size());

    double fraction_sum = 0.0;
    for (unsigned t = 0; t < kAliasTypeCount; ++t)
        fraction_sum += b.fractionOfPredictions(static_cast<AliasType>(t));
    EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
}

TEST(AliasAnalyzer, FractionWrongSumsToMispredictionRate)
{
    const ValueTrace trace = tracegen::makeMixedTrace({.seed = 5},
                                                      15000);
    AliasAnalyzer a(config(8, 12), true);
    const AliasBreakdown b = a.run(trace);
    double wrong_sum = 0.0;
    for (unsigned t = 0; t < kAliasTypeCount; ++t)
        wrong_sum += b.fractionWrong(static_cast<AliasType>(t));
    const PredictorStats total = b.total();
    EXPECT_NEAR(wrong_sum, 1.0 - total.accuracy(), 1e-9);
}

TEST(AliasAnalyzer, HashAliasingDominatesUnderPressure)
{
    // Small level-2 table + many instructions with distinct patterns:
    // hash conflicts must appear (the paper's dominant category).
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 40,
             .context_instructions = 30,
             .random_instructions = 6,
             .seed = 17},
            60000);
    AliasAnalyzer a(config(12, 8), false);
    const AliasBreakdown b = a.run(trace);
    EXPECT_GT(b.fractionOfPredictions(AliasType::Hash), 0.1);
}

TEST(AliasAnalyzer, ConstructorRejectsOutOfRangeConfig)
{
    const auto message = [](const FcmConfig& cfg) -> std::string {
        try {
            AliasAnalyzer a(cfg, false);
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
        return "(no std::invalid_argument thrown)";
    };
    EXPECT_THROW(AliasAnalyzer(config(25, 12), false),
                 std::invalid_argument);
    EXPECT_NE(message(config(25, 12)).find("l1_bits"), std::string::npos);
    EXPECT_THROW(AliasAnalyzer(config(12, 25), true),
                 std::invalid_argument);
    EXPECT_NE(message(config(12, 25)).find("l2_bits"), std::string::npos);

    // A hash narrower or wider than the level-2 table would index
    // outside it.
    FcmConfig mismatched = config(8, 12);
    mismatched.hash = ShiftFoldHash::fsR5(14);
    EXPECT_NE(message(mismatched).find("hash"), std::string::npos);
}

TEST(AliasAnalyzer, TypeNames)
{
    EXPECT_STREQ(aliasTypeName(AliasType::L1), "l1");
    EXPECT_STREQ(aliasTypeName(AliasType::Hash), "hash");
    EXPECT_STREQ(aliasTypeName(AliasType::L2Priv), "l2_priv");
    EXPECT_STREQ(aliasTypeName(AliasType::L2Pc), "l2_pc");
    EXPECT_STREQ(aliasTypeName(AliasType::None), "none");
}

} // namespace
} // namespace vpred
