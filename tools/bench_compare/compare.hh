/**
 * @file
 * bench-compare — the throughput-regression gate behind tools/check.sh.
 *
 * Compares the "metrics" object of two BENCH JSON files (the format
 * ResultsJsonWriter emits, see src/harness/results_json.hh): a
 * committed baseline (results/BENCH_throughput.json at HEAD) and a
 * freshly measured run. Every metric whose name ends in
 * "_records_per_sec" is a throughput; a fresh value more than
 * `threshold` (default 10%) below the baseline is a regression and
 * fails the gate. Every metric whose name ends in "_ns" and carries a
 * "_p50" or "_p99" tag is a latency quantile; those regress in the
 * *opposite* direction — a fresh value more than `latency_threshold`
 * (default 25%, latency is noisier than throughput) above the
 * baseline fails the gate. A gated metric with a zero, negative or
 * NaN value on either side is *incomparable* and also fails — a
 * corrupted baseline must never make the gate vacuously pass, and a
 * 0 ns quantile is a broken timestamp, not a fast drain. Ungated
 * metrics and metrics present on only one side are reported but
 * never fail; in particular a baseline committed before a latency
 * quantile existed is comparable by absence, so adding quantiles
 * never breaks the gate against history.
 *
 * Documents carrying a "scaling" table (the service bench's
 * per-(producers, shards) sweep) additionally gate each
 * sweep point: every row's records_per_sec is synthesized into a
 * metric named scaling_p<producers>_s<shards>_records_per_sec
 * and flows through the same threshold machinery, so a throughput
 * regression in one corner of the committed scaling curve fails the
 * gate even when the headline metric holds. Rows only one side has
 * compare by absence, which keeps the reduced smoke sweep compatible
 * with a full committed grid.
 *
 * The parser handles exactly the emitter's output — a flat
 * `"metrics": { "name": number, ... }` object with one pair per line
 * and one bracketed line per table row — not general JSON. That
 * keeps the tool dependency-free and is safe because both inputs
 * come from the same emitter; anything unrecognized is a parse
 * error, not a silent skip.
 */

#ifndef DFCM_TOOLS_BENCH_COMPARE_COMPARE_HH
#define DFCM_TOOLS_BENCH_COMPARE_COMPARE_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace bench_compare
{

/** One metric present in at least one of the two files. */
struct MetricDelta
{
    std::string name;
    std::optional<double> baseline;  //!< absent: new metric
    std::optional<double> fresh;     //!< absent: metric disappeared
    /** fresh / baseline when both sides are present and positive. */
    std::optional<double> ratio;
    /** True when this gated metric moved past its threshold in the
     *  bad direction: a "_records_per_sec" throughput that fell more
     *  than `threshold` below the baseline, or a "_p50"/"_p99" "_ns"
     *  latency quantile that rose more than `latency_threshold`
     *  above it. */
    bool regressed = false;
    /**
     * True when this is a gated (throughput or latency-quantile)
     * metric that *cannot* be compared: a baseline or fresh value
     * that is zero, negative or non-finite (a NaN survives JSON
     * parsing as the literal "nan"). Such a metric used to be
     * silently skipped, so a corrupted baseline made the gate
     * vacuously pass; now it fails the gate like a regression does.
     */
    bool incomparable = false;
};

/** Is @p name a gated throughput ("_records_per_sec" suffix)? */
bool isThroughputMetric(const std::string& name);

/** Is @p name a gated latency quantile ("_ns" suffix with a "_p50"
 *  or "_p99" tag anywhere in the name)? */
bool isLatencyQuantileMetric(const std::string& name);

/** Comparison of two metric sets at one threshold. */
struct Comparison
{
    std::vector<MetricDelta> deltas;  //!< baseline order, new ones last
    std::vector<std::string> errors;  //!< parse problems; fatal

    bool anyRegression() const;
    /** Any throughput metric with a zero/negative/NaN side. */
    bool anyIncomparable() const;
    /** What the gate acts on: parse errors, regressions, or
     *  incomparable throughput metrics. */
    bool anyFailure() const;
};

/**
 * Extract the "metrics" object of one BENCH JSON document as
 * (name, value) pairs in file order. Returns std::nullopt and
 * appends to @p errors when the document has no metrics object or a
 * pair does not parse.
 */
std::optional<std::vector<std::pair<std::string, double>>>
parseMetrics(const std::string& json, const std::string& label,
             std::vector<std::string>& errors);

/**
 * Extract the "scaling" table (the service bench's per-(producers,
 * shards) sweep) as synthesized gated metrics:
 *
 *     scaling_p<producers>_s<shards>_records_per_sec
 *
 * — one per row, so each sweep point's throughput flows through the
 * same threshold machinery as a top-level metric. The per-row
 * latency quantiles stay ungated: the smoke sweep's reduced stream
 * population shifts tail latency by regime, not regression. Rows
 * present in only one file compare by absence (reported, never
 * failed), which is what lets a reduced smoke sweep (2 points) gate
 * against a committed full grid. A document without a "scaling"
 * table yields an empty list — the table is optional, unlike the
 * "metrics" object. A table that is present but malformed (missing
 * key columns, ragged rows, a non-numeric throughput cell) is an
 * error.
 */
std::optional<std::vector<std::pair<std::string, double>>>
parseScalingMetrics(const std::string& json, const std::string& label,
                    std::vector<std::string>& errors);

/** Default allowed fractional rise for latency quantiles: shared
 *  runners jitter tail latency far more than throughput, so the
 *  latency gate ships looser than the 10% throughput default. */
inline constexpr double kDefaultLatencyThreshold = 0.25;

/**
 * Compare two BENCH JSON documents. @p threshold is the allowed
 * fractional drop for throughput metrics (0.10 = 10%);
 * @p latency_threshold the allowed fractional rise for latency
 * quantiles (0.25 = 25%).
 */
Comparison compare(const std::string& baseline_json,
                   const std::string& fresh_json, double threshold,
                   double latency_threshold = kDefaultLatencyThreshold);

/** Human-readable report: one line per metric plus a verdict line. */
void printReport(std::ostream& os, const Comparison& cmp,
                 double threshold,
                 double latency_threshold = kDefaultLatencyThreshold);

} // namespace bench_compare

#endif // DFCM_TOOLS_BENCH_COMPARE_COMPARE_HH
