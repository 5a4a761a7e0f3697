/**
 * @file
 * Unit tests for the experiment harness: runner, sweeps, Pareto
 * frontier, table printer and trace cache.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/pareto.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "harness/trace_cache.hh"

namespace vpred::harness
{
namespace
{

TEST(TraceCache, MemoizesRuns)
{
    TraceCache cache(0.05);
    const ValueTrace& a = cache.get("norm");
    const ValueTrace& b = cache.get("norm");
    EXPECT_EQ(&a, &b);  // same object, no re-run
    EXPECT_FALSE(a.empty());
}

TEST(TraceCache, ScaleFromEnvironment)
{
    ::setenv("REPRO_TRACE_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(envTraceScale(), 0.5);
    ::unsetenv("REPRO_TRACE_SCALE");
    EXPECT_DOUBLE_EQ(envTraceScale(), 1.0);
}

// Malformed or out-of-range REPRO_TRACE_SCALE values used to warn
// (or silently clamp) and run anyway at a scale the user did not
// ask for; since the checked-env migration they are fatal.
TEST(TraceCacheDeathTest, MalformedScaleIsFatal)
{
    ::setenv("REPRO_TRACE_SCALE", "nonsense", 1);
    EXPECT_EXIT(envTraceScale(), ::testing::ExitedWithCode(2),
                "REPRO_TRACE_SCALE");
    ::setenv("REPRO_TRACE_SCALE", "0.5x", 1);  // trailing garbage
    EXPECT_EXIT(envTraceScale(), ::testing::ExitedWithCode(2),
                "REPRO_TRACE_SCALE");
    ::setenv("REPRO_TRACE_SCALE", "1e9", 1);  // out of range
    EXPECT_EXIT(envTraceScale(), ::testing::ExitedWithCode(2),
                "REPRO_TRACE_SCALE");
    ::setenv("REPRO_TRACE_SCALE", "-1", 1);
    EXPECT_EXIT(envTraceScale(), ::testing::ExitedWithCode(2),
                "REPRO_TRACE_SCALE");
    ::unsetenv("REPRO_TRACE_SCALE");
}

TEST(Experiment, RunOnProducesConsistentStats)
{
    TraceCache cache(0.05);
    PredictorConfig cfg;
    cfg.kind = PredictorKind::Dfcm;
    cfg.l1_bits = 12;
    cfg.l2_bits = 10;
    const RunResult r = runOn(cache, "norm", cfg);
    EXPECT_EQ(r.workload, "norm");
    EXPECT_EQ(r.stats.predictions, cache.get("norm").size());
    EXPECT_GT(r.accuracy(), 0.5);  // norm is stride heaven for DFCM
    EXPECT_GT(r.storage_bits, 0u);
}

TEST(Experiment, SuiteAggregationIsPredictionWeighted)
{
    TraceCache cache(0.05);
    PredictorConfig cfg;
    cfg.kind = PredictorKind::Stride;
    cfg.l1_bits = 12;
    const SuiteResult suite =
            runSuite(cache, {"norm", "compress"}, cfg);
    ASSERT_EQ(suite.per_workload.size(), 2u);

    std::uint64_t predictions = 0, correct = 0;
    for (const RunResult& r : suite.per_workload) {
        predictions += r.stats.predictions;
        correct += r.stats.correct;
    }
    EXPECT_EQ(suite.total.predictions, predictions);
    EXPECT_EQ(suite.total.correct, correct);
    // Weighted mean == total-counter ratio by construction.
    EXPECT_DOUBLE_EQ(suite.accuracy(),
                     static_cast<double>(correct)
                             / static_cast<double>(predictions));
}

TEST(Experiment, EmptySuiteStillCarriesPredictorMetadata)
{
    // Regression: an empty workload list used to leave the predictor
    // name and storage blank, producing blank table/JSON rows.
    TraceCache cache(0.05);
    PredictorConfig cfg;
    cfg.kind = PredictorKind::Dfcm;
    cfg.l1_bits = 12;
    cfg.l2_bits = 10;
    const SuiteResult suite = runSuite(cache, {}, cfg);
    EXPECT_FALSE(suite.predictor.empty());
    EXPECT_GT(suite.storage_bits, 0u);
    EXPECT_EQ(suite.total.predictions, 0u);
    EXPECT_TRUE(suite.per_workload.empty());
}

TEST(Sweep, PaperGrids)
{
    EXPECT_EQ(paperL2Bits().size(), 7u);
    EXPECT_EQ(paperL2Bits().front(), 8u);
    EXPECT_EQ(paperL2Bits().back(), 20u);
    EXPECT_EQ(paperFcmL1Bits().size(), 8u);
    EXPECT_EQ(paperUpdateDelays().front(), 0u);

    const auto grid = twoLevelGrid(PredictorKind::Fcm, paperFcmL1Bits(),
                                   paperL2Bits());
    EXPECT_EQ(grid.size(), 56u);
    EXPECT_EQ(grid.front().kind, PredictorKind::Fcm);
}

TEST(Pareto, KeepsOnlyDominatingPoints)
{
    const std::vector<ParetoPoint> points = {
        {100, 0.5, "a"},
        {200, 0.4, "dominated-worse-and-bigger"},
        {200, 0.7, "b"},
        {50, 0.3, "c"},
        {400, 0.7, "dominated-same-accuracy-bigger"},
        {800, 0.9, "d"},
    };
    const auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 4u);
    EXPECT_EQ(frontier[0].label, "c");
    EXPECT_EQ(frontier[1].label, "a");
    EXPECT_EQ(frontier[2].label, "b");
    EXPECT_EQ(frontier[3].label, "d");
}

TEST(Pareto, TiesOnSizeKeepBest)
{
    const auto frontier = paretoFrontier({{10, 0.2, "lo"},
                                          {10, 0.6, "hi"}});
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].label, "hi");
}

TEST(Pareto, EmptyInput)
{
    EXPECT_TRUE(paretoFrontier({}).empty());
}

TEST(TablePrinter, AlignedOutput)
{
    TablePrinter t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TablePrinter, Formatting)
{
    EXPECT_EQ(TablePrinter::fmt(0.123456, 3), "0.123");
    EXPECT_EQ(TablePrinter::fmt(std::uint64_t{42}), "42");
}

TEST(TablePrinter, CsvRoundTrip)
{
    // writeCsv() writes under the working directory's results/, so
    // run it from a private temp directory: the test must never
    // leave a CSV beside the real figure outputs.
    namespace fs = std::filesystem;
    const fs::path home = fs::current_path();
    const fs::path dir = fs::temp_directory_path()
            / ("vpred_table_printer_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    fs::current_path(dir);
    TablePrinter t({"x", "y"});
    t.addRow({"1", "2"});
    t.writeCsv("test_table");
    std::ifstream in("results/test_table.csv");
    fs::current_path(home);
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    in.close();
    fs::remove_all(dir);
}

} // namespace
} // namespace vpred::harness
