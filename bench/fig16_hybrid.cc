/**
 * @file
 * Figure 16 reproduction: FCM, DFCM and perfect-metapredictor
 * hybrids (STRIDE+FCM, STRIDE+DFCM) vs. level-2 size; all level-1
 * tables and the stride table have 2^16 entries.
 *
 * Paper shape: DFCM outperforms the perfect STRIDE+FCM hybrid at
 * every level-2 size (by a small margin); perfect STRIDE+DFCM gains
 * only .02-.04 over the plain DFCM. A realizable counter-meta hybrid
 * is included as an extra series to show the oracle gap.
 *
 * The 35 (level-2 size × series) configs run as one grid through
 * the parallel sweep executor.
 */

#include "bench_util.hh"

#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"

int
main()
{
    using namespace vpred;
    using harness::TablePrinter;
    bench::Banner banner("fig16", "hybrid predictors vs DFCM");

    // One grid, one row of series per level-2 size, on the sweep
    // pool (REPRO_JOBS workers).
    const PredictorKind kinds[] = {
            PredictorKind::Fcm, PredictorKind::Dfcm,
            PredictorKind::PerfectStrideFcm,
            PredictorKind::PerfectStrideDfcm,
            PredictorKind::HybridStrideFcm};
    std::vector<PredictorConfig> configs;
    for (unsigned l2 : harness::paperL2Bits()) {
        for (const PredictorKind kind : kinds) {
            PredictorConfig cfg;
            cfg.l1_bits = 16;
            cfg.l2_bits = l2;
            cfg.kind = kind;
            configs.push_back(cfg);
        }
    }
    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<harness::SuiteResult> results =
            sweep.runGrid(configs);
    bench::reportExecution(sweep.lastExecution());

    TablePrinter table({"l2_bits", "fcm", "dfcm", "stride+fcm",
                        "stride+dfcm", "real_stride+fcm"});
    constexpr std::size_t kSeries = std::size(kinds);
    for (std::size_t i = 0; i < configs.size(); i += kSeries) {
        std::vector<std::string> row = {
                TablePrinter::fmt(std::uint64_t{configs[i].l2_bits})};
        for (std::size_t k = 0; k < kSeries; ++k)
            row.push_back(TablePrinter::fmt(results[i + k].accuracy()));
        table.addRow(row);
    }

    table.print(std::cout);
    table.writeCsv("fig16_hybrid");
    return 0;
}
