/**
 * @file
 * Unit tests for the ideal-index (collision-free) context
 * predictors.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/ideal_context_predictor.hh"
#include "core/stats.hh"
#include "tracegen/mixer.hh"

namespace vpred
{
namespace
{

TEST(IdealContextPredictor, LearnsContextPatternsExactly)
{
    IdealContextPredictor p(8, 3, /*differential=*/false);
    const Value pattern[] = {5, 5, 9, 1, 7};
    PredictorStats s;
    for (int lap = 0; lap < 40; ++lap)
        for (Value v : pattern)
            s.record(p.predictAndUpdate(1, v));
    // After the first lap there is no aliasing of any kind: perfect.
    EXPECT_GE(s.correct, s.predictions - 8);
}

TEST(IdealContextPredictor, DifferentialFormPredictsFreshStrides)
{
    IdealContextPredictor p(8, 3, /*differential=*/true);
    PredictorStats s;
    for (int i = 0; i < 100; ++i)
        s.record(p.predictAndUpdate(1, 50 + 9 * i));
    EXPECT_GE(s.correct, 94u);
}

TEST(IdealContextPredictor, NeverWorseThanHashedAtSameOrder)
{
    // Removing hash collisions can only help on a trace with heavy
    // table pressure.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 30,
             .context_instructions = 25,
             .random_instructions = 4,
             .seed = 5150},
            100000);

    FcmPredictor fcm({.l1_bits = 10, .l2_bits = 10});  // order 2
    IdealContextPredictor ideal(10, fcm.order(), false);
    EXPECT_GE(runTrace(ideal, trace).correct + 200,
              runTrace(fcm, trace).correct);

    DfcmPredictor dfcm({.l1_bits = 10, .l2_bits = 10});
    IdealContextPredictor ideal_d(10, dfcm.order(), true);
    EXPECT_GE(runTrace(ideal_d, trace).correct + 200,
              runTrace(dfcm, trace).correct);
}

TEST(IdealContextPredictor, StrideUsesOneContext)
{
    // The differential ideal predictor materializes just a couple of
    // contexts for a pure stride (constant difference history).
    IdealContextPredictor p(8, 4, true);
    for (int i = 0; i < 200; ++i)
        p.update(1, 3 * i);
    EXPECT_LE(p.contextCount(), 6u);

    // The plain form materializes one context per value (Figure 4).
    IdealContextPredictor q(8, 4, false);
    for (int i = 0; i < 200; ++i)
        q.update(1, 3 * i);
    EXPECT_GE(q.contextCount(), 190u);
}

/** The message of the std::invalid_argument @p make throws. */
template <class F>
std::string
invalidArgumentMessage(F make)
{
    try {
        make();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "(no std::invalid_argument thrown)";
}

TEST(IdealContextPredictor, ConstructorRejectsOutOfRangeParameters)
{
    // Release builds compile asserts out: order 0 used to reach a
    // negative-size history shift on the first update.
    for (const unsigned order : {0u, 17u}) {
        EXPECT_THROW(IdealContextPredictor(8, order, false),
                     std::invalid_argument);
        EXPECT_NE(invalidArgumentMessage([&] {
                      IdealContextPredictor(8, order, true);
                  }).find("order"),
                  std::string::npos);
    }
    EXPECT_THROW(IdealContextPredictor(25, 3, false),
                 std::invalid_argument);
    EXPECT_NE(invalidArgumentMessage([] {
                  IdealContextPredictor(25, 3, false);
              }).find("l1_bits"),
              std::string::npos);

    // The boundaries themselves are accepted.
    IdealContextPredictor lowest(8, 1, false);
    lowest.update(1, 5);
    EXPECT_EQ(lowest.predict(1), 0u);  // history (5) is a new context
    IdealContextPredictor highest(0, 16, true);
    highest.update(1, 5);
    EXPECT_EQ(highest.contextCount(), 1u);
}

TEST(IdealContextPredictor, Name)
{
    EXPECT_EQ(IdealContextPredictor(10, 3, false).name(),
              "ideal-fcm(l1=10,o=3)");
    EXPECT_EQ(IdealContextPredictor(10, 3, true).name(),
              "ideal-dfcm(l1=10,o=3)");
}

} // namespace
} // namespace vpred
