/**
 * @file
 * Tests for the parallel sweep executor: thread pool semantics,
 * concurrent TraceCache use, serial/parallel result equivalence over
 * the Figure 10 grid, and the JSON results emitter.
 *
 * Built as its own binary (vpred_concurrency_tests, CTest label
 * "concurrency") so it can run under ThreadSanitizer via
 * -DREPRO_TSAN=ON.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "harness/results_json.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"

namespace vpred::harness
{
namespace
{

constexpr double kTestScale = 0.03;

/** The Figure 10(a) grid: (fcm, dfcm) at l1 = 2^16 per level-2 size. */
std::vector<PredictorConfig>
fig10Grid()
{
    std::vector<PredictorConfig> configs;
    for (unsigned l2 : paperL2Bits()) {
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

void
expectSuitesEqual(const SuiteResult& a, const SuiteResult& b)
{
    EXPECT_EQ(a.predictor, b.predictor);
    EXPECT_EQ(a.storage_bits, b.storage_bits);
    EXPECT_EQ(a.total, b.total);
    ASSERT_EQ(a.per_workload.size(), b.per_workload.size());
    for (std::size_t w = 0; w < a.per_workload.size(); ++w) {
        EXPECT_EQ(a.per_workload[w].workload, b.per_workload[w].workload);
        EXPECT_EQ(a.per_workload[w].predictor,
                  b.per_workload[w].predictor);
        EXPECT_EQ(a.per_workload[w].stats, b.per_workload[w].stats);
        EXPECT_EQ(a.per_workload[w].storage_bits,
                  b.per_workload[w].storage_bits);
    }
}

TEST(EnvJobs, ParsesAndClampsAndWarns)
{
    ::setenv("REPRO_JOBS", "4", 1);
    EXPECT_EQ(envJobs(), 4u);
    ::setenv("REPRO_JOBS", "1", 1);
    EXPECT_EQ(envJobs(), 1u);
    ::setenv("REPRO_JOBS", "100000", 1);
    EXPECT_EQ(envJobs(), 512u);  // clamped
    ::unsetenv("REPRO_JOBS");
    const unsigned hw = envJobs();
    EXPECT_GE(hw, 1u);
    ::setenv("REPRO_JOBS", "garbage", 1);
    EXPECT_EQ(envJobs(), hw);  // unparsable -> hardware default
    ::setenv("REPRO_JOBS", "0", 1);
    EXPECT_EQ(envJobs(), hw);
    ::unsetenv("REPRO_JOBS");
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(round * 7 + 1, [&](std::size_t) { ++sum; });
        EXPECT_EQ(sum.load(), round * 7 + 1);
    }
    pool.parallelFor(0, [](std::size_t) { FAIL(); });  // empty batch ok
}

TEST(ThreadPool, SingleJobRunsInlineAndInOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(8, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("cell");
                                  }),
                 std::runtime_error);
    // Pool is still usable after an exceptional batch.
    std::atomic<int> sum{0};
    pool.parallelFor(4, [&](std::size_t) { ++sum; });
    EXPECT_EQ(sum.load(), 4);
}

TEST(TraceCache, ConcurrentGetsYieldOneStableEntry)
{
    TraceCache cache(kTestScale);
    ThreadPool pool(4);
    std::vector<const ValueTrace*> seen(16);
    pool.parallelFor(seen.size(), [&](std::size_t i) {
        seen[i] = &cache.get(i % 2 == 0 ? "norm" : "compress");
    });
    // All readers of one workload saw the same node.
    for (std::size_t i = 2; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], seen[i % 2]);
    EXPECT_FALSE(seen[0]->empty());
    EXPECT_FALSE(seen[1]->empty());
}

TEST(TraceCache, PrewarmMakesGetsPureLookups)
{
    TraceCache cache(kTestScale);
    cache.prewarm({"norm", "norm", "compress"});
    const ValueTrace& warm = cache.get("norm");
    EXPECT_EQ(&warm, &cache.get("norm"));
}

TEST(ParallelSweep, MatchesSerialRunSuiteOnFig10Grid)
{
    const std::vector<PredictorConfig> configs = fig10Grid();

    TraceCache serial_cache(kTestScale);
    std::vector<SuiteResult> serial;
    for (const PredictorConfig& cfg : configs)
        serial.push_back(runBenchmarks(serial_cache, cfg));

    TraceCache parallel_cache(kTestScale);
    ParallelSweep sweep(parallel_cache, 4);
    const std::vector<SuiteResult> parallel = sweep.runGrid(configs);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSuitesEqual(parallel[i], serial[i]);
}

TEST(ParallelSweep, SingleJobPathMatchesSerial)
{
    PredictorConfig cfg;
    cfg.kind = PredictorKind::Dfcm;
    cfg.l1_bits = 12;
    cfg.l2_bits = 10;

    TraceCache serial_cache(kTestScale);
    const SuiteResult serial = runBenchmarks(serial_cache, cfg);

    TraceCache parallel_cache(kTestScale);
    ParallelSweep sweep(parallel_cache, 1);
    EXPECT_EQ(sweep.jobs(), 1u);
    const std::vector<SuiteResult> got = sweep.runGrid({cfg});
    ASSERT_EQ(got.size(), 1u);
    expectSuitesEqual(got[0], serial);
}

TEST(ParallelSweep, RespectsReproJobsEnv)
{
    ::setenv("REPRO_JOBS", "2", 1);
    TraceCache cache(kTestScale);
    ParallelSweep sweep(cache);
    EXPECT_EQ(sweep.jobs(), 2u);
    ::unsetenv("REPRO_JOBS");
}

TEST(ParallelSweep, CustomWorkloadSubset)
{
    PredictorConfig cfg;
    cfg.kind = PredictorKind::Stride;
    cfg.l1_bits = 10;

    TraceCache cache(kTestScale);
    ParallelSweep sweep(cache, 2);
    const auto got = sweep.runGrid({cfg}, {"norm", "compress"});
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].per_workload.size(), 2u);
    EXPECT_EQ(got[0].per_workload[0].workload, "norm");
    EXPECT_EQ(got[0].per_workload[1].workload, "compress");
    expectSuitesEqual(got[0],
                      runSuite(cache, {"norm", "compress"}, cfg));
}

TEST(ResultsJson, SerializesSchemaFields)
{
    TraceCache cache(kTestScale);
    PredictorConfig cfg;
    cfg.kind = PredictorKind::Dfcm;
    cfg.l1_bits = 12;
    cfg.l2_bits = 10;
    const SuiteResult suite = runSuite(cache, {"norm"}, cfg);

    ResultsJsonWriter json("unit_test", kTestScale, 3);
    json.add(cfg, suite);
    json.setWallSeconds(1.5);
    SweepExecution exec;
    exec.cells = 1;
    exec.fused_cells = 1;
    exec.trace_walks = 1;
    exec.store_enabled = true;
    exec.store_hits = 1;
    exec.acquisition_seconds = 0.25;
    exec.simd_backend = "avx2";
    exec.vector_width = 256;
    json.setExecution(exec);
    const std::string s = json.toJson();
    EXPECT_NE(s.find("\"schema_version\": 9"), std::string::npos);
    EXPECT_NE(s.find("\"simd_backend\": \"avx2\""), std::string::npos);
    EXPECT_NE(s.find("\"vector_width\": 256"), std::string::npos);
    EXPECT_EQ(s.find("gather"), std::string::npos);
    EXPECT_NE(s.find("\"trace_store_enabled\": true"),
              std::string::npos);
    EXPECT_NE(s.find("\"trace_store_hits\": 1"), std::string::npos);
    EXPECT_NE(s.find("\"trace_store_misses\": 0"), std::string::npos);
    EXPECT_NE(s.find("\"trace_acquisition_ms\": 250"),
              std::string::npos);
    EXPECT_NE(s.find("\"experiment\": \"unit_test\""), std::string::npos);
    EXPECT_NE(s.find("\"trace_scale\": 0.03"), std::string::npos);
    EXPECT_NE(s.find("\"jobs\": 3"), std::string::npos);
    EXPECT_NE(s.find("\"wall_seconds\": 1.5"), std::string::npos);
    EXPECT_NE(s.find("\"kind\": \"dfcm\""), std::string::npos);
    EXPECT_NE(s.find("\"l1_bits\": 12"), std::string::npos);
    EXPECT_NE(s.find("\"l2_bits\": 10"), std::string::npos);
    EXPECT_NE(s.find("\"workload\": \"norm\""), std::string::npos);
    EXPECT_NE(s.find("\"accuracy\": "), std::string::npos);
    EXPECT_EQ(json.resultCount(), 1u);
}

TEST(ResultsJson, SerializesTables)
{
    ResultsJsonWriter json("unit_test_table", 1.0, 1);
    json.setWallSeconds(0.0);
    json.addTable("scaling", {"label", "producers", "rate"},
                  {{"first", 1.0, 2.5e6}, {"second", 4.0, 1.25e6}});
    json.addTable("empty_table", {"only_columns"}, {});
    const std::string s = json.toJson();
    EXPECT_NE(s.find("\"scaling\": {"), std::string::npos);
    EXPECT_NE(s.find("\"columns\": [\"label\", \"producers\","
                     " \"rate\"]"),
              std::string::npos);
    EXPECT_NE(s.find("[\"first\", 1, 2500000]"), std::string::npos);
    EXPECT_NE(s.find("[\"second\", 4, 1250000]"), std::string::npos);
    EXPECT_NE(s.find("\"empty_table\": {"), std::string::npos);
    EXPECT_NE(s.find("\"rows\": []"), std::string::npos);
}

TEST(ResultsJson, WritesBenchFile)
{
    ResultsJsonWriter json("unit_test_file", 1.0, 1);
    ASSERT_TRUE(json.write());
    std::ifstream in("results/BENCH_unit_test_file.json");
    ASSERT_TRUE(in.good());
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, "{");
}

TEST(ResultsJson, EscapesStrings)
{
    EXPECT_EQ(ResultsJsonWriter::escape("plain"), "plain");
    EXPECT_EQ(ResultsJsonWriter::escape("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
}

} // namespace
} // namespace vpred::harness
