/**
 * @file
 * Unit tests of the benchmark's own measurement code: the open-loop
 * due-time math, the tail-percentile rule, the latency histogram and
 * span self time.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "measure.hh"
#include "spans.hh"

namespace perfbench
{
namespace
{

TEST(OpenLoopSchedule, DueTimesAdvanceByThePeriod)
{
    const OpenLoopSchedule s(1'000'000.0, 5'000);  // 1 us period
    EXPECT_EQ(s.dueNs(0), 5'000u);
    EXPECT_EQ(s.dueNs(1), 6'000u);
    EXPECT_EQ(s.dueNs(1'000'000), 5'000u + 1'000'000'000u);
}

TEST(OpenLoopSchedule, DueCountIsTheNumberOfPassedDueTimes)
{
    const OpenLoopSchedule s(1'000'000.0, 5'000);
    EXPECT_EQ(s.dueCount(0), 0u);
    EXPECT_EQ(s.dueCount(4'999), 0u);
    EXPECT_EQ(s.dueCount(5'000), 1u);   // record 0 is due at start
    EXPECT_EQ(s.dueCount(5'999), 1u);
    EXPECT_EQ(s.dueCount(6'000), 2u);
}

TEST(OpenLoopSchedule, DueCountAgreesWithDueNsAtAwkwardRates)
{
    // Rates whose period is not a whole number of nanoseconds.
    for (const double rate : {3'000'000.0, 7'777'777.0, 1.0 / 3.0e-7}) {
        const OpenLoopSchedule s(rate, 123);
        for (std::uint64_t t = 0; t < 20'000; t += 7) {
            const std::uint64_t n = s.dueCount(t);
            if (n > 0)
                EXPECT_LE(s.dueNs(n - 1), t) << rate << " " << t;
            EXPECT_GT(s.dueNs(n), t) << rate << " " << t;
        }
    }
}

TEST(SupportedPercentile, LeavesAtLeastTenSamplesBeyond)
{
    EXPECT_EQ(supportedPercentile(0), 0.0);
    EXPECT_EQ(supportedPercentile(19), 0.0);
    EXPECT_EQ(supportedPercentile(20), 50.0);
    EXPECT_EQ(supportedPercentile(99), 50.0);
    EXPECT_EQ(supportedPercentile(100), 90.0);
    EXPECT_EQ(supportedPercentile(999), 90.0);
    EXPECT_EQ(supportedPercentile(1'000), 99.0);
    EXPECT_DOUBLE_EQ(supportedPercentile(10'000), 99.9);
    EXPECT_DOUBLE_EQ(supportedPercentile(2'000'000), 99.999);
}

TEST(LatencyHistogram, QuantilesAreWithinHalfAPercent)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100'000; ++v)
        h.record(v * 1'000);  // 1 us .. 100 ms, uniform
    EXPECT_NEAR(h.percentileNs(50.0), 50e6, 50e6 * 0.005);
    EXPECT_NEAR(h.percentileNs(99.0), 99e6, 99e6 * 0.005);
    for (const std::uint64_t v : {1ull, 127ull, 128ull, 1'000'003ull,
                                  (1ull << 40) + 12345}) {
        const double mid = LatencyHistogram::bucketMid(
                LatencyHistogram::bucketOf(v));
        EXPECT_NEAR(mid, static_cast<double>(v),
                    static_cast<double>(v) * 0.004 + 0.5)
                << v;
    }
}

TEST(LatencyHistogram, MissingSamplesRankAboveEveryValue)
{
    LatencyHistogram h;
    for (int i = 0; i < 98; ++i)
        h.record(1'000);
    h.addMissing(2);
    EXPECT_EQ(h.samples(), 100u);
    EXPECT_TRUE(std::isfinite(h.percentileNs(98.0)));
    EXPECT_TRUE(std::isinf(h.percentileNs(99.0)));
}

Span
span(std::uint32_t id, std::uint32_t parent, std::uint64_t start,
     std::uint64_t end, const char* name = "x.y")
{
    return {name, 1, id, parent, start, end};
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren)
{
    // Parent [0, 100); children [10, 40) and [30, 60) overlap (other
    // threads) and [90, 120) sticks out: covered = [10, 60) + [90, 100).
    const std::vector<Span> spans = {
            span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60),
            span(4, 1, 90, 120), span(5, 2, 15, 25)};
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 40e-9);  // 100 - (50 + 10)
    EXPECT_DOUBLE_EQ(self[1], 20e-9);  // 30 - 10 (grandchild)
    EXPECT_DOUBLE_EQ(self[2], 30e-9);
    EXPECT_DOUBLE_EQ(self[3], 30e-9);
    EXPECT_DOUBLE_EQ(self[4], 10e-9);
}

TEST(SpanSelfTime, LayersSumSelfTimeAndNamesSumBusyTime)
{
    const std::vector<Span> spans = {
            span(1, 0, 0, 100, "bench.pass"),
            span(2, 1, 0, 40, "harness.run_grid"),
            span(3, 1, 50, 70, "harness.run_grid"),
            span(4, 0, 200, 210, "sim.prewarm")};
    const auto layers = selfByLayer(spans);
    EXPECT_DOUBLE_EQ(layers.at("bench"), 40e-9);
    EXPECT_DOUBLE_EQ(layers.at("harness"), 60e-9);
    EXPECT_DOUBLE_EQ(layers.at("sim"), 10e-9);
    const auto totals = totalsByName(spans);
    EXPECT_EQ(totals.at("harness.run_grid").count, 2u);
    EXPECT_DOUBLE_EQ(totals.at("harness.run_grid").busy_s, 60e-9);
}

TEST(Tracer, BuffersMergeByStartTimeWithUniqueIds)
{
    Tracer tracer;
    SpanBuffer& a = tracer.newBuffer();
    SpanBuffer& b = tracer.newBuffer();
    const std::uint32_t pa = a.add("x.a", 1, 0, 50, 60);
    const std::uint32_t pb = b.add("x.b", 1, pa, 10, 20);
    EXPECT_NE(pa, pb);
    const std::vector<Span> all = tracer.merged();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].id, pb);
    EXPECT_EQ(all[0].parent, pa);
}

} // namespace
} // namespace perfbench
