/**
 * @file
 * Machine-readable results emission for the benchmark harness.
 *
 * The CSV mirrors in results/ are per-table; this writer captures a
 * whole experiment — every (config, suite-result) pair plus the run
 * metadata (trace scale, worker count, wall time) — as one JSON file
 * named results/BENCH_<experiment>.json, so the accuracy/throughput
 * trajectory can be tracked across commits by diffing or ingesting
 * the files. Schema (schema_version 9; "execution", "metrics" and
 * addSection() objects appear only when set). Version 3 added the
 * trace-store fields to "execution": whether a persistent
 * REPRO_TRACE_DIR store was configured, how many traces it served
 * (hits) vs. regenerated (misses), and the wall time spent acquiring
 * traces. Version 4 added the SIMD dispatch fields: which
 * multi-geometry kernel backend ran and its vector width in bits.
 * Version 5 added named top-level sections of numeric pairs via
 * addSection() — e.g. the prediction service's "service" object in
 * BENCH_service.json. Version 6 added the service's "drain_batches"
 * section, and version 7 named top-level *tables* via addTable() —
 * columns plus rows of mixed string/number cells — used by
 * BENCH_service.json's "scaling" grid (one row per {producers,
 * shards} sweep point), and the ingest-fabric sections
 * "ingest_fabric" and "producer_blocked". Version 9 leaves
 * simd_backend with two labels ("scalar", "avx2") and drops the
 * gather-tier "execution" fields and the service's "packing"
 * section that version 8 and earlier carried:
 *
 *     "scaling": {
 *       "columns": ["producers", "shards",
 *                   "records_per_sec", "p99_ingest_to_predict_ns"],
 *       "rows": [ [1, 1, 3.2e6, 1.1e7], ... ]
 *     },
 *
 *     {
 *       "schema_version": 9,
 *       "experiment": "fig10_fcm_vs_dfcm",
 *       "trace_scale": 1.0,
 *       "jobs": 8,
 *       "wall_seconds": 2.417,
 *       "execution": { "path": "multi-geometry", "cells": 112,
 *         "batched_cells": 112, "fused_cells": 0, "virtual_cells": 0,
 *         "trace_walks": 16, "sweep_wall_seconds": 1.208,
 *         "trace_store_enabled": true, "trace_store_hits": 8,
 *         "trace_store_misses": 0, "trace_acquisition_ms": 42.7,
 *         "simd_backend": "avx2", "vector_width": 256 },
 *       "metrics": { "dfcm_multigeom_records_per_sec": 1.2e8 },
 *       "results": [
 *         { "predictor": "dfcm(l1=16,l2=12)", "kind": "dfcm",
 *           "l1_bits": 16, "l2_bits": 12, "storage_kbit": 1568.0,
 *           "accuracy": 0.7251, "predictions": 18349056,
 *           "correct": 13304929,
 *           "per_workload": [
 *             { "workload": "go", "accuracy": 0.61,
 *               "predictions": 2293632, "correct": 1399115 }, ... ] },
 *         ...
 *       ]
 *     }
 *
 * Doubles are printed with enough digits to round-trip, so the files
 * are byte-stable across runs of a deterministic experiment.
 */

#ifndef DFCM_HARNESS_RESULTS_JSON_HH
#define DFCM_HARNESS_RESULTS_JSON_HH

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"

namespace vpred::harness
{

/** One table cell for ResultsJsonWriter::addTable — either a string
 *  (emitted escaped and quoted) or a number (round-trippable). */
class JsonValue
{
  public:
    JsonValue(double v) : num_(v) {}
    JsonValue(std::string s) : text_(std::move(s)), is_text_(true) {}
    JsonValue(const char* s) : text_(s), is_text_(true) {}

    bool isText() const { return is_text_; }
    const std::string& text() const { return text_; }
    double number() const { return num_; }

  private:
    std::string text_;
    double num_ = 0.0;
    bool is_text_ = false;
};

/** Accumulates sweep results and writes results/BENCH_<name>.json. */
class ResultsJsonWriter
{
  public:
    /**
     * @param experiment File stem, e.g. "fig10_fcm_vs_dfcm".
     * @param trace_scale The TraceCache scale the results were run at.
     * @param jobs Worker threads used (1 = serial).
     */
    ResultsJsonWriter(std::string experiment, double trace_scale,
                      unsigned jobs);

    /** Append one configuration's suite result. */
    void add(const PredictorConfig& config, const SuiteResult& suite);

    /** Append every (config, suite) pair of a runGrid() call. */
    void addGrid(const std::vector<PredictorConfig>& configs,
                 const std::vector<SuiteResult>& suites);

    /**
     * Record how the sweep executed (path, trace walks, wall time) —
     * emitted as an "execution" object so BENCH files are comparable
     * across PRs. Typically ParallelSweep::lastExecution().
     */
    void setExecution(const SweepExecution& e) { execution_ = e; }

    /**
     * Record a named scalar metric (e.g. a records/sec throughput);
     * emitted under "metrics" in insertion order.
     */
    void
    addMetric(const std::string& name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /**
     * Record a named top-level object of numeric key/value pairs
     * (schema_version 5) — e.g. the prediction service's "service"
     * section. Sections are emitted before "metrics" in insertion
     * order; values follow the same round-trippable number format.
     * The name must not collide with a fixed schema key.
     */
    void
    addSection(const std::string& name,
               std::vector<std::pair<std::string, double>> kvs)
    {
        sections_.emplace_back(name, std::move(kvs));
    }

    /**
     * Record a named top-level table (schema_version 7): an object
     * with a "columns" array of names and a "rows" array of
     * equal-length cell arrays, each cell a string or a number —
     * e.g. the service bench's "scaling" grid. Tables are emitted
     * after sections, before "metrics", in insertion order.
     */
    void
    addTable(const std::string& name, std::vector<std::string> columns,
             std::vector<std::vector<JsonValue>> rows)
    {
        tables_.push_back({name, std::move(columns), std::move(rows)});
    }

    /** Serialize to a JSON string ("wall_seconds" = time since
     *  construction, or the setWallSeconds() override). */
    std::string toJson() const;

    /**
     * Write results/BENCH_<experiment>.json (creating results/ if
     * needed). Best effort like TablePrinter::writeCsv — failures
     * warn on stderr and return false, never throw.
     */
    bool write() const;

    /** Override the measured wall time (for reproducible tests). */
    void setWallSeconds(double s) { wall_seconds_override_ = s; }

    std::size_t resultCount() const { return entries_.size(); }

    /** Minimal JSON string escaping (quotes, backslashes, control
     *  characters). */
    static std::string escape(const std::string& s);

  private:
    struct Entry
    {
        PredictorConfig config;
        SuiteResult suite;
    };

    std::string experiment_;
    double trace_scale_;
    unsigned jobs_;
    std::chrono::steady_clock::time_point start_;
    double wall_seconds_override_ = -1.0;
    std::optional<SweepExecution> execution_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<
            std::string, std::vector<std::pair<std::string, double>>>>
            sections_;
    struct Table
    {
        std::string name;
        std::vector<std::string> columns;
        std::vector<std::vector<JsonValue>> rows;
    };
    std::vector<Table> tables_;
    std::vector<Entry> entries_;
};

} // namespace vpred::harness

#endif // DFCM_HARNESS_RESULTS_JSON_HH
