/**
 * @file
 * Tests for the bench-compare throughput-regression gate: the metric
 * parser against documents shaped exactly like ResultsJsonWriter's
 * output (including one produced by the real emitter), the
 * regression rule at the 10% threshold, and the acceptance cases the
 * gate exists for — fail on a synthetic 10%+ regression, pass on an
 * identical baseline.
 */

#include "bench_compare/compare.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/results_json.hh"

namespace
{

using bench_compare::Comparison;
using bench_compare::MetricDelta;

/** A minimal BENCH document with the given metrics object body. */
std::string
doc(const std::string& metrics_body)
{
    return "{\n  \"schema_version\": 4,\n  \"experiment\": \"t\",\n"
           "  \"metrics\": {\n"
            + metrics_body + "\n  },\n  \"results\": []\n}\n";
}

const MetricDelta*
find(const Comparison& cmp, const std::string& name)
{
    for (const MetricDelta& d : cmp.deltas)
        if (d.name == name)
            return &d;
    return nullptr;
}

TEST(BenchCompareParse, ReadsEmitterShapedMetrics)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseMetrics(
            doc("    \"a_records_per_sec\": 1.5e8,\n"
                "    \"b_speedup\": 2.25"),
            "baseline", errors);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(errors.empty());
    ASSERT_EQ(m->size(), 2u);
    EXPECT_EQ((*m)[0].first, "a_records_per_sec");
    EXPECT_DOUBLE_EQ((*m)[0].second, 1.5e8);
    EXPECT_EQ((*m)[1].first, "b_speedup");
    EXPECT_DOUBLE_EQ((*m)[1].second, 2.25);
}

TEST(BenchCompareParse, RoundTripsTheRealEmitter)
{
    vpred::harness::ResultsJsonWriter json("unit", 1.0, 1);
    json.addMetric("dfcm_l2column_multigeom_records_per_sec", 4.15e8);
    json.addMetric("dfcm_simd_speedup_vs_scalar", 1.36);
    std::vector<std::string> errors;
    const auto m = bench_compare::parseMetrics(json.toJson(), "fresh",
                                               errors);
    ASSERT_TRUE(m.has_value()) << (errors.empty() ? "" : errors[0]);
    ASSERT_EQ(m->size(), 2u);
    EXPECT_DOUBLE_EQ((*m)[0].second, 4.15e8);
    EXPECT_DOUBLE_EQ((*m)[1].second, 1.36);
}

TEST(BenchCompareParse, MissingMetricsObjectIsAnError)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseMetrics(
            "{ \"schema_version\": 4, \"results\": [] }", "baseline",
            errors);
    EXPECT_FALSE(m.has_value());
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("baseline"), std::string::npos);
}

TEST(BenchCompareParse, NonNumericValueIsAnError)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseMetrics(
            doc("    \"a_records_per_sec\": fast"), "fresh", errors);
    EXPECT_FALSE(m.has_value());
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("a_records_per_sec"), std::string::npos);
}

TEST(BenchCompareGate, IdenticalRunsPass)
{
    const std::string d = doc("    \"x_records_per_sec\": 3.0e8");
    const Comparison cmp = bench_compare::compare(d, d, 0.10);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_FALSE(cmp.anyRegression());
}

TEST(BenchCompareGate, TenPercentPlusDropFails)
{
    // 3.0e8 -> 2.6e8 is a 13.3% drop: past the 10% threshold.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 3.0e8"),
            doc("    \"x_records_per_sec\": 2.6e8"), 0.10);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_TRUE(cmp.anyRegression());
    const MetricDelta* d = find(cmp, "x_records_per_sec");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->regressed);
    ASSERT_TRUE(d->ratio.has_value());
    EXPECT_NEAR(*d->ratio, 2.6 / 3.0, 1e-12);
}

TEST(BenchCompareGate, DropWithinThresholdPasses)
{
    // A 5% dip is measurement noise, not a regression.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 3.0e8"),
            doc("    \"x_records_per_sec\": 2.85e8"), 0.10);
    EXPECT_FALSE(cmp.anyRegression());
}

TEST(BenchCompareGate, NonThroughputMetricsNeverFail)
{
    // Speedups and counters are informational: a halved speedup is
    // reported but does not trip the gate.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_simd_speedup_vs_scalar\": 1.4"),
            doc("    \"x_simd_speedup_vs_scalar\": 0.7"), 0.10);
    EXPECT_FALSE(cmp.anyRegression());
}

TEST(BenchCompareGate, NewAndGoneMetricsAreReportedNotFailed)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"old_records_per_sec\": 1.0e8"),
            doc("    \"new_records_per_sec\": 2.0e8"), 0.10);
    EXPECT_FALSE(cmp.anyRegression());
    const MetricDelta* gone = find(cmp, "old_records_per_sec");
    ASSERT_NE(gone, nullptr);
    EXPECT_FALSE(gone->fresh.has_value());
    const MetricDelta* fresh = find(cmp, "new_records_per_sec");
    ASSERT_NE(fresh, nullptr);
    EXPECT_FALSE(fresh->baseline.has_value());
}

TEST(BenchCompareGate, ImprovementPasses)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 3.0e8"),
            doc("    \"x_records_per_sec\": 4.0e8"), 0.10);
    EXPECT_FALSE(cmp.anyRegression());
}

TEST(BenchCompareGate, ZeroBaselineThroughputIsIncomparableAndFails)
{
    // A baseline whose records/sec is 0.0 (a bench that never ran,
    // or a truncated file) used to be skipped silently, so ANY fresh
    // run passed against it. It must fail the gate.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 0.0"),
            doc("    \"x_records_per_sec\": 2.6e8"), 0.10);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_FALSE(cmp.anyRegression());
    EXPECT_TRUE(cmp.anyIncomparable());
    EXPECT_TRUE(cmp.anyFailure());
    const MetricDelta* d = find(cmp, "x_records_per_sec");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->incomparable);
    EXPECT_FALSE(d->ratio.has_value());
}

TEST(BenchCompareGate, NanBaselineThroughputIsIncomparableAndFails)
{
    // strtod parses the literal "nan" — a malformed baseline reaches
    // compare() as a NaN value, not a parse error.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": nan"),
            doc("    \"x_records_per_sec\": 2.6e8"), 0.10);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_TRUE(cmp.anyIncomparable());
    EXPECT_TRUE(cmp.anyFailure());
}

TEST(BenchCompareGate, ZeroFreshThroughputIsIncomparableAndFails)
{
    // Symmetric rule: a fresh run reporting 0 records/sec is a
    // broken measurement, not an infinite regression.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 3.0e8"),
            doc("    \"x_records_per_sec\": 0.0"), 0.10);
    EXPECT_TRUE(cmp.anyIncomparable());
    EXPECT_TRUE(cmp.anyFailure());
}

TEST(BenchCompareGate, CorruptBaselineWithNoFreshCounterpartStillFails)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 0.0"),
            doc("    \"y_records_per_sec\": 1.0e8"), 0.10);
    EXPECT_TRUE(cmp.anyIncomparable());
}

TEST(BenchCompareGate, NonThroughputZeroOrNanNeverFails)
{
    // Informational metrics keep their report-only contract even
    // when degenerate.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_speedup\": 0.0,\n    \"y_count\": nan"),
            doc("    \"x_speedup\": 1.0,\n    \"y_count\": 3.0"), 0.10);
    EXPECT_FALSE(cmp.anyIncomparable());
    EXPECT_FALSE(cmp.anyFailure());
}

TEST(BenchCompareGate, CleanComparisonHasNoFailure)
{
    const std::string d = doc("    \"x_records_per_sec\": 3.0e8");
    const Comparison cmp = bench_compare::compare(d, d, 0.10);
    EXPECT_FALSE(cmp.anyFailure());
}

TEST(BenchCompareLatency, ClassifierNeedsQuantileTagAndNsSuffix)
{
    // Both tag orders the benches emit are latency quantiles...
    EXPECT_TRUE(bench_compare::isLatencyQuantileMetric(
            "service_p99_ingest_to_predict_ns"));
    EXPECT_TRUE(bench_compare::isLatencyQuantileMetric(
            "drain_batch_p50_ns"));
    // ...but a bare duration is ungated, as is a quantile of a
    // non-duration counter.
    EXPECT_FALSE(bench_compare::isLatencyQuantileMetric(
            "trace_generate_ns"));
    EXPECT_FALSE(
            bench_compare::isLatencyQuantileMetric("backlog_p99_count"));
    EXPECT_FALSE(bench_compare::isLatencyQuantileMetric(
            "x_records_per_sec"));
}

TEST(BenchCompareLatency, RisePastThresholdFails)
{
    // p99 6.5ms -> 9.0ms is a 38% rise: past the 25% latency
    // threshold even though it would pass the throughput rule.
    const Comparison cmp = bench_compare::compare(
            doc("    \"service_p99_ingest_to_predict_ns\": 6.5e6"),
            doc("    \"service_p99_ingest_to_predict_ns\": 9.0e6"),
            0.10, 0.25);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_TRUE(cmp.anyRegression());
    const MetricDelta* d =
            find(cmp, "service_p99_ingest_to_predict_ns");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->regressed);
    ASSERT_TRUE(d->ratio.has_value());
    EXPECT_NEAR(*d->ratio, 9.0 / 6.5, 1e-12);
}

TEST(BenchCompareLatency, RiseWithinThresholdPasses)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"service_p50_ingest_to_predict_ns\": 6.5e6"),
            doc("    \"service_p50_ingest_to_predict_ns\": 7.5e6"),
            0.10, 0.25);
    EXPECT_FALSE(cmp.anyFailure());
}

TEST(BenchCompareLatency, ImprovementPasses)
{
    // Latency gates the opposite direction from throughput: a 50%
    // *drop* is an improvement, not a regression.
    const Comparison cmp = bench_compare::compare(
            doc("    \"service_p99_ingest_to_predict_ns\": 6.5e6"),
            doc("    \"service_p99_ingest_to_predict_ns\": 3.2e6"),
            0.10, 0.25);
    EXPECT_FALSE(cmp.anyFailure());
}

TEST(BenchCompareLatency, AbsentFromBaselineIsComparableByAbsence)
{
    // A baseline committed before the quantile metrics existed must
    // keep passing: the new metrics are reported, never failed.
    const Comparison cmp = bench_compare::compare(
            doc("    \"service_ingest_records_per_sec\": 3.0e6"),
            doc("    \"service_ingest_records_per_sec\": 3.1e6,\n"
                "    \"service_p50_ingest_to_predict_ns\": 6.5e6,\n"
                "    \"service_p99_ingest_to_predict_ns\": 4.8e7"),
            0.10, 0.25);
    EXPECT_FALSE(cmp.anyFailure());
    const MetricDelta* d =
            find(cmp, "service_p99_ingest_to_predict_ns");
    ASSERT_NE(d, nullptr);
    EXPECT_FALSE(d->baseline.has_value());
    EXPECT_FALSE(d->regressed);
    EXPECT_FALSE(d->incomparable);
}

TEST(BenchCompareLatency, ZeroQuantileIsIncomparableAndFails)
{
    // A 0 ns quantile is a clamped or missing producer timestamp —
    // exactly the measurement bug this gate must refuse to bless.
    const Comparison cmp = bench_compare::compare(
            doc("    \"service_p50_ingest_to_predict_ns\": 6.5e6"),
            doc("    \"service_p50_ingest_to_predict_ns\": 0.0"), 0.10,
            0.25);
    EXPECT_TRUE(cmp.anyIncomparable());
    EXPECT_TRUE(cmp.anyFailure());
}

TEST(BenchCompareLatency, ThresholdIsIndependentOfThroughputs)
{
    // One doc, both kinds: a throughput well within its 10% band and
    // a quantile just past its own 25% band — only the latency fails.
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 3.0e8,\n"
                "    \"x_p99_ns\": 1.0e6"),
            doc("    \"x_records_per_sec\": 2.9e8,\n"
                "    \"x_p99_ns\": 1.3e6"),
            0.10, 0.25);
    EXPECT_TRUE(cmp.anyRegression());
    const MetricDelta* thr = find(cmp, "x_records_per_sec");
    ASSERT_NE(thr, nullptr);
    EXPECT_FALSE(thr->regressed);
    const MetricDelta* lat = find(cmp, "x_p99_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_TRUE(lat->regressed);
}

TEST(BenchCompareReport, LatencyVerdictLineCountsQuantiles)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_p99_ns\": 1.0e6"),
            doc("    \"x_p99_ns\": 2.0e6"), 0.10, 0.25);
    std::ostringstream os;
    bench_compare::printReport(os, cmp, 0.10, 0.25);
    EXPECT_NE(os.str().find("REGRESSED x_p99_ns"), std::string::npos);
    EXPECT_NE(os.str().find(
                      "1 latency quantile(s) more than 25% above"),
              std::string::npos);
    EXPECT_NE(os.str().find("FAIL"), std::string::npos);
}

TEST(BenchCompareReport, MarksIncomparableAndFailsVerdict)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 0.0"),
            doc("    \"x_records_per_sec\": 2.6e8"), 0.10);
    std::ostringstream os;
    bench_compare::printReport(os, cmp, 0.10);
    EXPECT_NE(os.str().find("INCOMPARABLE x_records_per_sec"),
              std::string::npos);
    EXPECT_NE(os.str().find("FAIL"), std::string::npos);
    EXPECT_NE(os.str().find("incomparable"), std::string::npos);
}

TEST(BenchCompareReport, MarksRegressionsAndVerdict)
{
    const Comparison cmp = bench_compare::compare(
            doc("    \"x_records_per_sec\": 3.0e8"),
            doc("    \"x_records_per_sec\": 2.0e8"), 0.10);
    std::ostringstream os;
    bench_compare::printReport(os, cmp, 0.10);
    EXPECT_NE(os.str().find("REGRESSED x_records_per_sec"),
              std::string::npos);
    EXPECT_NE(os.str().find("FAIL: 1"), std::string::npos);
}

/** A BENCH document with a metrics object and a scaling table shaped
 *  like the service emitter's, with the given row lines. */
std::string
scalingDoc(const std::string& rows,
           const std::string& metrics_body =
                   "    \"svc_records_per_sec\": 4.0e6")
{
    return "{\n  \"schema_version\": 9,\n  \"experiment\": \"service\","
           "\n  \"scaling\": {\n"
           "    \"columns\": [\"producers\", \"shards\", "
           "\"records\", \"records_per_sec\", "
           "\"p50_ingest_to_predict_ns\", \"p99_ingest_to_predict_ns\", "
           "\"hit_rate_col0\"],\n"
           "    \"rows\": [\n"
            + rows
            + "\n    ]\n  },\n  \"metrics\": {\n" + metrics_body
            + "\n  },\n  \"results\": []\n}\n";
}

TEST(BenchCompareScaling, SynthesizesGatedMetricsPerRow)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseScalingMetrics(
            scalingDoc("      [1, 1, 4e+06, 4.0e6, 1500, "
                       "4000, 0.28],\n"
                       "      [2, 2, 4e+06, 3.5e6, 2100, "
                       "8000, 0.28]"),
            "baseline", errors);
    ASSERT_TRUE(m.has_value()) << (errors.empty() ? "" : errors[0]);
    EXPECT_TRUE(errors.empty());
    // One gated throughput per row; the latency quantiles, records
    // and hit_rate columns stay out (regime-dependent or ungated).
    ASSERT_EQ(m->size(), 2u);
    EXPECT_EQ((*m)[0].first, "scaling_p1_s1_records_per_sec");
    EXPECT_DOUBLE_EQ((*m)[0].second, 4.0e6);
    EXPECT_EQ((*m)[1].first, "scaling_p2_s2_records_per_sec");
    EXPECT_DOUBLE_EQ((*m)[1].second, 3.5e6);
    EXPECT_TRUE(bench_compare::isThroughputMetric((*m)[0].first));
}

TEST(BenchCompareScaling, DocumentWithoutTableYieldsNothing)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseScalingMetrics(
            doc("    \"a_records_per_sec\": 1.0e8"), "fresh", errors);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(errors.empty());
    EXPECT_TRUE(m->empty());
}

TEST(BenchCompareScaling, RaggedRowIsAnError)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseScalingMetrics(
            scalingDoc("      [1, 1, 4e+06, 4.0e6, 1500]"),
            "baseline", errors);
    EXPECT_FALSE(m.has_value());
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("baseline"), std::string::npos);
}

TEST(BenchCompareScaling, NonNumericGatedCellIsAnError)
{
    std::vector<std::string> errors;
    const auto m = bench_compare::parseScalingMetrics(
            scalingDoc("      [1, 1, 4e+06, fast, 1500, "
                       "4000, 0.28]"),
            "fresh", errors);
    EXPECT_FALSE(m.has_value());
    ASSERT_EQ(errors.size(), 1u);
}

TEST(BenchCompareScaling, RowRegressionFailsTheGate)
{
    const std::string base = scalingDoc(
            "      [1, 1, 4e+06, 4.0e6, 1500, 4000, 0.28],\n"
            "      [2, 1, 4e+06, 4.2e6, 2100, 8000, 0.28]");
    // Headline metric holds; the 2-producer row's throughput drops
    // 40% — exactly the corner-of-the-curve regression the per-row
    // gate exists to catch.
    const std::string fresh = scalingDoc(
            "      [1, 1, 4e+06, 4.0e6, 1500, 4000, 0.28],\n"
            "      [2, 1, 4e+06, 2.5e6, 2100, 8000, 0.28]");
    const Comparison cmp = bench_compare::compare(base, fresh, 0.10);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_TRUE(cmp.anyFailure());
    const MetricDelta* d =
            find(cmp, "scaling_p2_s1_records_per_sec");
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->regressed);
    const MetricDelta* ok =
            find(cmp, "scaling_p1_s1_records_per_sec");
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->regressed);
}

TEST(BenchCompareScaling, RowLatencyQuantilesStayUngated)
{
    // p99 triples; only throughput is synthesized per row, so the
    // gate stays green — a reduced-scale smoke sweep shifts tail
    // latency by regime, and gating it would fail every CI run.
    const std::string base = scalingDoc(
            "      [1, 1, 4e+06, 4.0e6, 1500, 4000, 0.28]");
    const std::string fresh = scalingDoc(
            "      [1, 1, 4e+06, 4.0e6, 1500, 12000, 0.28]");
    const Comparison cmp =
            bench_compare::compare(base, fresh, 0.10, 0.25);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_FALSE(cmp.anyFailure());
    EXPECT_EQ(find(cmp, "scaling_p1_s1_p99_ingest_to_predict_ns"),
              nullptr);
}

TEST(BenchCompareScaling, SmokeSubsetComparesByAbsence)
{
    // Committed full grid, fresh smoke run with only one of the rows:
    // the missing row is reported, never failed; the shared row still
    // gates.
    const std::string base = scalingDoc(
            "      [1, 1, 4e+06, 4.0e6, 1500, 4000, 0.28],\n"
            "      [4, 2, 4e+06, 3.0e6, 4600, 16000, 0.28]");
    const std::string fresh = scalingDoc(
            "      [1, 1, 4e+06, 3.9e6, 1500, 4000, 0.28]");
    const Comparison cmp = bench_compare::compare(base, fresh, 0.10);
    EXPECT_TRUE(cmp.errors.empty());
    EXPECT_FALSE(cmp.anyFailure());
    const MetricDelta* gone =
            find(cmp, "scaling_p4_s2_records_per_sec");
    ASSERT_NE(gone, nullptr);
    EXPECT_FALSE(gone->fresh.has_value());
    EXPECT_FALSE(gone->regressed);
}

TEST(BenchCompareScaling, RoundTripsTheRealTableEmitter)
{
    vpred::harness::ResultsJsonWriter json("service", 1.0, 1);
    json.addMetric("svc_records_per_sec", 4.0e6);
    json.addTable("scaling",
                  {"producers", "shards", "records",
                   "records_per_sec", "p50_ingest_to_predict_ns",
                   "p99_ingest_to_predict_ns", "hit_rate_col0"},
                  {{2.0, 1.0, 4e6, 3.6e6, 2200.0, 9100.0, 0.28}});
    std::vector<std::string> errors;
    const auto m = bench_compare::parseScalingMetrics(json.toJson(),
                                                      "fresh", errors);
    ASSERT_TRUE(m.has_value()) << (errors.empty() ? "" : errors[0]);
    ASSERT_EQ(m->size(), 1u);
    EXPECT_EQ((*m)[0].first, "scaling_p2_s1_records_per_sec");
    EXPECT_DOUBLE_EQ((*m)[0].second, 3.6e6);
}

} // namespace
