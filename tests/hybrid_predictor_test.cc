/**
 * @file
 * Unit tests for the perfect-meta and counter-meta hybrids.
 */

#include <gtest/gtest.h>

#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/hybrid_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/stats.hh"
#include "core/stride_predictor.hh"
#include "tracegen/mixer.hh"

namespace vpred
{
namespace
{

std::unique_ptr<ValuePredictor>
makeStride()
{
    return std::make_unique<StridePredictor>(8);
}

std::unique_ptr<ValuePredictor>
makeFcm()
{
    FcmConfig cfg;
    cfg.l1_bits = 8;
    cfg.l2_bits = 12;
    return std::make_unique<FcmPredictor>(cfg);
}

std::unique_ptr<ValuePredictor>
makeDfcm()
{
    return std::make_unique<DfcmPredictor>(
            DfcmConfig{.l1_bits = 8, .l2_bits = 12});
}

std::unique_ptr<ValuePredictor>
makeLvp()
{
    return std::make_unique<LastValuePredictor>(8);
}

/** Predict both components, then update both: the composition the
 *  perfect hybrid's fused step must reproduce. */
PredictorStats
predictBothThenUpdateBoth(ValuePredictor& first, ValuePredictor& second,
                          std::span<const TraceRecord> trace)
{
    PredictorStats stats;
    for (const TraceRecord& rec : trace) {
        const bool first_correct = first.predict(rec.pc) == rec.value;
        const bool second_correct = second.predict(rec.pc) == rec.value;
        first.update(rec.pc, rec.value);
        second.update(rec.pc, rec.value);
        stats.record(first_correct || second_correct);
    }
    return stats;
}

TEST(PerfectHybrid, CorrectWhenEitherComponentIsCorrect)
{
    PerfectHybridPredictor hybrid(makeStride(), makeFcm());
    // Stride pattern: the stride side nails it, FCM lags.
    PredictorStats s;
    for (int i = 0; i < 100; ++i)
        s.record(hybrid.predictAndUpdate(1, 3 * i));
    StridePredictor alone(8);
    PredictorStats s_alone = runTrace(alone, [] {
        ValueTrace t;
        for (int i = 0; i < 100; ++i)
            t.push_back({1, static_cast<Value>(3 * i)});
        return t;
    }());
    EXPECT_GE(s.correct, s_alone.correct);
}

TEST(PerfectHybrid, AtLeastAsGoodAsEachComponentOnMixedTrace)
{
    // Interleave a stride pattern and a context pattern.
    ValueTrace trace;
    const Value ctx[] = {9, 1, 7, 7, 2};
    for (int i = 0; i < 300; ++i) {
        trace.push_back({1, static_cast<Value>(5 * i)});
        trace.push_back({2, ctx[i % 5]});
    }

    PerfectHybridPredictor hybrid(makeStride(), makeFcm());
    const PredictorStats sh = runTrace(hybrid, trace);

    StridePredictor stride(8);
    const PredictorStats ss = runTrace(stride, trace);
    FcmPredictor fcm({.l1_bits = 8, .l2_bits = 12});
    const PredictorStats sf = runTrace(fcm, trace);

    EXPECT_GE(sh.correct, ss.correct);
    EXPECT_GE(sh.correct, sf.correct);
}

TEST(PerfectHybrid, StorageIsSumOfComponents)
{
    PerfectHybridPredictor hybrid(makeStride(), makeFcm());
    EXPECT_EQ(hybrid.storageBits(),
              makeStride()->storageBits() + makeFcm()->storageBits());
}

TEST(PerfectHybrid, UpdatesBothComponents)
{
    auto stride = makeStride();
    auto* stride_raw = static_cast<StridePredictor*>(stride.get());
    PerfectHybridPredictor hybrid(std::move(stride), makeFcm());
    for (int i = 0; i < 10; ++i)
        hybrid.predictAndUpdate(1, 4 * i);
    // The stride component saw every update.
    EXPECT_EQ(stride_raw->predict(1), 40u);
}

TEST(PerfectHybrid, FusedStepsMatchPredictBothThenUpdateBoth)
{
    // Small tables and many instructions: heavy aliasing in every
    // component, so any cross-talk between the fused steps shows.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 40,
             .constant_instructions = 6,
             .context_instructions = 30,
             .random_instructions = 6,
             .seed = 1616},
            60000);
    using Make = std::unique_ptr<ValuePredictor> (*)();
    const std::pair<Make, Make> pairs[] = {
            {makeStride, makeFcm}, {makeStride, makeDfcm},
            {makeLvp, makeFcm}};
    for (const auto& [make_first, make_second] : pairs) {
        auto first = make_first();
        auto second = make_second();
        const PredictorStats want =
                predictBothThenUpdateBoth(*first, *second, trace);

        PerfectHybridPredictor walked(make_first(), make_second());
        const PredictorStats got = runTrace(walked, trace);
        EXPECT_EQ(got.predictions, want.predictions) << walked.name();
        EXPECT_EQ(got.correct, want.correct) << walked.name();

        PerfectHybridPredictor stepped(make_first(), make_second());
        PredictorStats stepped_stats;
        for (const TraceRecord& rec : trace)
            stepped_stats.record(stepped.predictAndUpdate(rec.pc,
                                                          rec.value));
        EXPECT_EQ(stepped_stats.correct, want.correct) << walked.name();

        // Both components end in the reference state.
        for (Pc pc = 0; pc < 256; ++pc) {
            EXPECT_EQ(walked.predict(pc), first->predict(pc));
            EXPECT_EQ(stepped.predict(pc), first->predict(pc));
        }
    }
}

/** A stride predictor that counts its fused steps. */
class CountingStride : public StridePredictor
{
  public:
    CountingStride() : StridePredictor(8) {}

    bool
    predictAndUpdate(Pc pc, Value actual) override
    {
        ++steps;
        return StridePredictor::predictAndUpdate(pc, actual);
    }

    std::uint64_t steps = 0;
};

TEST(PerfectHybrid, PairWalkNeverBypassesASubclassOverride)
{
    // The devirtualized Stride x FCM walk must not take a subclass
    // of StridePredictor for the base class: its override has to run
    // on every record.
    ValueTrace trace;
    for (int i = 0; i < 1000; ++i)
        trace.push_back({static_cast<Pc>(i % 7), static_cast<Value>(i)});
    auto counting = std::make_unique<CountingStride>();
    CountingStride* raw = counting.get();
    PerfectHybridPredictor hybrid(std::move(counting), makeFcm());
    runTrace(hybrid, trace);
    EXPECT_EQ(raw->steps, trace.size());
}

TEST(CounterHybrid, ConvergesToTheBetterComponentPerPc)
{
    CounterHybridPredictor hybrid(
            makeStride(),
            std::make_unique<LastValuePredictor>(8),
            CounterHybridPredictor::Config{.meta_bits = 8});
    // Stride data: the chooser should settle on the stride side.
    for (int i = 0; i < 50; ++i)
        hybrid.predictAndUpdate(1, 10 * i);
    EXPECT_TRUE(hybrid.choosesFirst(1));

    // A pattern where LVP wins: values alternate A A B B A A B B, so
    // the stride side keeps mispredicting the transitions with a
    // stale stride while LVP gets every second value.
    for (int i = 0; i < 200; ++i)
        hybrid.predictAndUpdate(2, (i / 2) % 2 == 0 ? 5 : 900);
    EXPECT_FALSE(hybrid.choosesFirst(2));
    // The earlier pc is unaffected (separate chooser entries).
    EXPECT_TRUE(hybrid.choosesFirst(1));
}

TEST(CounterHybrid, WorseThanPerfectHybrid)
{
    ValueTrace trace;
    const Value ctx[] = {9, 1, 7, 7, 2};
    for (int i = 0; i < 500; ++i) {
        trace.push_back({1, static_cast<Value>(5 * i)});
        trace.push_back({2, ctx[i % 5]});
    }
    CounterHybridPredictor real(
            makeStride(), makeFcm(),
            CounterHybridPredictor::Config{.meta_bits = 8});
    PerfectHybridPredictor perfect(makeStride(), makeFcm());
    EXPECT_LE(runTrace(real, trace).correct,
              runTrace(perfect, trace).correct);
}

TEST(CounterHybrid, StorageIncludesMetaTable)
{
    CounterHybridPredictor hybrid(
            makeStride(), makeFcm(),
            CounterHybridPredictor::Config{.meta_bits = 10,
                                           .counter_bits = 2});
    EXPECT_EQ(hybrid.storageBits(),
              makeStride()->storageBits() + makeFcm()->storageBits()
                      + 1024u * 2);
}

} // namespace
} // namespace vpred
