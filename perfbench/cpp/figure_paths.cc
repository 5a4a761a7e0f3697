/**
 * @file
 * The figure-pipeline workloads.
 *
 * sweep: the configuration grids of Figures 3, 10, 11 and 17, each
 * submitted to ParallelSweep::runGrid over the eight paper traces —
 * the multi-geometry kernel tiers and level-2 tables from 2^8 to
 * 2^20 entries. It never touches alias analysis, the ideal-context
 * predictor or the service.
 *
 * analysis: the Figure 13 alias taxonomy (AliasAnalyzer, FCM and
 * DFCM), the hashed-vs-ideal-index ablation (IdealContextPredictor)
 * and the Figure 16 hybrid-oracle runBenchmarks calls, on the harness
 * thread pool — the virtual predictor path with string-keyed maps
 * that never reaches the multi-geometry kernels.
 *
 * Both repeat whole passes until the requested seconds are used and
 * report the median pass rate. Every pass must reproduce the first
 * pass's statistics exactly, and the first pass is checked against
 * an independent per-config path.
 */

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/alias_analysis.hh"
#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/ideal_context_predictor.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using vpred::PredictorConfig;
using vpred::PredictorKind;
using vpred::PredictorStats;
using vpred::harness::SuiteResult;
using vpred::harness::TraceCache;

namespace
{

/** Trace scales (0.25 gives 6.9M records over the eight traces, and
 *  0.05 the simulator's floor of 5.0M): a sweep pass takes about
 *  2.2 s and an analysis pass about 4 s on a 4-core host. */
constexpr double kSweepScale = 0.25;
constexpr double kAnalysisScale = 0.05;

/** Passes per run: at least this many untraced ones, and exactly this
 *  many traced plus this many untraced ones with tracing on. */
constexpr int kMinPasses = 3;

/** Cells the sweep checks against the per-config path. */
constexpr int kSampledCells = 6;

bool
sameStats(const PredictorStats& a, const PredictorStats& b)
{
    return a.predictions == b.predictions && a.correct == b.correct;
}

std::uint64_t
totalRecords(TraceCache& cache)
{
    std::uint64_t n = 0;
    for (const std::string& name : vpred::workloads::benchmarkNames())
        n += cache.getSpan(name).size();
    return n;
}

/** Generate the traces Run::kSetups times; keep the last cache. */
std::unique_ptr<TraceCache>
setUpTraces(Run& run, double scale)
{
    std::unique_ptr<TraceCache> cache;
    std::vector<double> generate;
    timedSetups(run, [&] { cache.reset(); }, [&](int k) {
        const std::uint64_t t0 = nowNs();
        cache = generateTraces(run, scale,
                               Run::kSetupRequest
                                       + static_cast<std::uint64_t>(k));
        generate.push_back(secondsSince(t0));
    });
    if (run.opt.trace)
        reportSimLayer(run, *cache, median(generate));
    return cache;
}

/** Whether pass @p pass is traced: with tracing on, passes alternate
 *  untraced/traced so the two rates compare under the same drift. */
bool
tracedPass(const Run& run, int pass)
{
    return run.opt.trace && pass % 2 == 1;
}

bool
morePasses(const Run& run, int pass, std::uint64_t start_ns)
{
    if (run.opt.trace)
        return pass < 2 * kMinPasses;
    return pass < kMinPasses || secondsSince(start_ns) < run.opt.seconds;
}

/** Report predictions_per_s (untraced passes) and, when tracing,
 *  the traced/untraced ratio. */
void
reportRates(Run& run, const std::vector<double>& untraced,
            const std::vector<double>& traced)
{
    const double rate = median(untraced);
    run.report.metric("predictions_per_s", rate, "1/s");
    std::string passes;
    for (const double r : untraced)
        passes += " " + std::to_string(static_cast<long long>(r / 1e6));
    run.report.note("(median of " + std::to_string(untraced.size())
                    + " untraced passes, M/s:" + passes + ")");
    if (run.opt.trace)
        run.report.metric("bench.traced_over_untraced",
                          median(traced) / rate, "ratio");
}

struct Grid
{
    const char* figure;
    std::vector<PredictorConfig> configs;
};

/** The grids the fig03/fig10/fig11/fig17 drivers submit. */
std::vector<Grid>
figureGrids()
{
    using vpred::harness::paperDfcmL1Bits;
    using vpred::harness::paperFcmL1Bits;
    using vpred::harness::paperL2Bits;
    using vpred::harness::twoLevelGrid;

    std::vector<Grid> grids;

    Grid fig03{"fig03", {}};
    for (const PredictorKind kind : {PredictorKind::Lvp,
                                     PredictorKind::Stride}) {
        for (unsigned bits : vpred::harness::paperSingleTableBits()) {
            PredictorConfig cfg;
            cfg.kind = kind;
            cfg.l1_bits = bits;
            fig03.configs.push_back(cfg);
        }
    }
    for (const PredictorConfig& cfg :
         twoLevelGrid(PredictorKind::Fcm, paperFcmL1Bits(), paperL2Bits()))
        fig03.configs.push_back(cfg);
    grids.push_back(std::move(fig03));

    Grid fig10{"fig10", {}};
    for (unsigned l2 : paperL2Bits()) {
        PredictorConfig cfg;
        cfg.l1_bits = 16;
        cfg.l2_bits = l2;
        cfg.kind = PredictorKind::Fcm;
        fig10.configs.push_back(cfg);
        cfg.kind = PredictorKind::Dfcm;
        fig10.configs.push_back(cfg);
    }
    grids.push_back(std::move(fig10));

    Grid fig11{"fig11", twoLevelGrid(PredictorKind::Dfcm,
                                     paperDfcmL1Bits(), paperL2Bits())};
    for (const PredictorConfig& cfg :
         twoLevelGrid(PredictorKind::Fcm, paperFcmL1Bits(), paperL2Bits()))
        fig11.configs.push_back(cfg);
    for (const PredictorConfig& cfg :
         twoLevelGrid(PredictorKind::Dfcm, {4, 6, 8}, paperL2Bits()))
        fig11.configs.push_back(cfg);
    grids.push_back(std::move(fig11));

    Grid fig17{"fig17", {}};
    for (unsigned delay : vpred::harness::paperUpdateDelays()) {
        PredictorConfig cfg;
        cfg.l1_bits = 16;
        cfg.l2_bits = 12;
        cfg.update_delay = delay;
        cfg.kind = PredictorKind::Fcm;
        fig17.configs.push_back(cfg);
        cfg.kind = PredictorKind::Dfcm;
        fig17.configs.push_back(cfg);
    }
    grids.push_back(std::move(fig17));
    return grids;
}

} // namespace

void
runSweep(Run& run)
{
    std::unique_ptr<TraceCache> cache = setUpTraces(run, kSweepScale);
    const std::vector<std::string>& names =
            vpred::workloads::benchmarkNames();
    const std::vector<Grid> grids = figureGrids();
    const std::uint64_t records = totalRecords(*cache);
    std::uint64_t evals_per_pass = 0;
    for (const Grid& g : grids)
        evals_per_pass += g.configs.size() * records;

    vpred::harness::ParallelSweep sweep(
            *cache, std::max(1u, std::thread::hardware_concurrency()));
    run.report.note("sweep: " + std::to_string(grids.size())
                    + " figure grids x " + std::to_string(names.size())
                    + " traces (" + std::to_string(records)
                    + " records), " + std::to_string(sweep.jobs())
                    + " jobs");

    Rng rng(run.opt.seed);
    std::vector<std::vector<SuiteResult>> first(grids.size());
    vpred::harness::SweepExecution traced_exec;
    std::vector<double> untraced_rates, traced_rates;
    PeakRssPerPass rss;
    const std::uint64_t start = nowNs();
    for (int pass = 0; morePasses(run, pass, start); ++pass) {
        const bool traced = tracedPass(run, pass);
        SpanBuffer* spans = traced ? run.spans : nullptr;
        rss.begin();
        // The seed picks the order the figures are regenerated in.
        std::vector<std::size_t> order(grids.size());
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);

        bool repeatable = true;
        const std::uint64_t t0 = nowNs();
        {
            const ScopedSpan pass_span(spans, "bench.sweep_pass",
                                       static_cast<std::uint64_t>(pass),
                                       0);
            for (const std::size_t g : order) {
                std::vector<SuiteResult> results;
                {
                    const ScopedSpan s(spans,
                                       "harness.parallel_sweep.run_grid",
                                       static_cast<std::uint64_t>(pass),
                                       pass_span.id());
                    results = sweep.runGrid(grids[g].configs);
                }
                if (traced) {
                    const auto& e = sweep.lastExecution();
                    traced_exec.cells += e.cells;
                    traced_exec.batched_cells += e.batched_cells;
                    traced_exec.fused_cells += e.fused_cells;
                    traced_exec.virtual_cells += e.virtual_cells;
                    traced_exec.trace_walks += e.trace_walks;
                }
                if (pass == 0) {
                    first[g] = std::move(results);
                    continue;
                }
                for (std::size_t i = 0; i < results.size(); ++i)
                    for (std::size_t w = 0; w < names.size(); ++w)
                        repeatable = repeatable
                                && sameStats(
                                        results[i].per_workload[w].stats,
                                        first[g][i].per_workload[w].stats);
            }
        }
        const double rate = static_cast<double>(evals_per_pass)
                / secondsSince(t0);
        (traced ? traced_rates : untraced_rates).push_back(rate);
        rss.end();
        if (pass > 0)
            run.report.check(repeatable,
                             "sweep pass " + std::to_string(pass)
                                     + " reproduces pass 0");
        run.report.operations(evals_per_pass, 0);
    }

    // A seeded sample of cells against the per-config reference path
    // (runOn: one predictor, no multi-geometry batching).
    for (int k = 0; k < kSampledCells; ++k) {
        const std::size_t g = rng.below(grids.size());
        const std::size_t i = rng.below(grids[g].configs.size());
        const std::size_t w = rng.below(names.size());
        const vpred::harness::RunResult ref =
                vpred::harness::runOn(*cache, names[w],
                                      grids[g].configs[i]);
        run.report.check(sameStats(ref.stats,
                                   first[g][i].per_workload[w].stats),
                         std::string(grids[g].figure) + " cell "
                                 + std::to_string(i) + " on " + names[w]
                                 + " matches runOn");
    }

    PredictorStats total;
    for (const auto& results : first)
        for (const SuiteResult& r : results)
            total += r.total;
    reportRates(run, untraced_rates, traced_rates);
    run.report.metric("hit_rate", total.accuracy(), "ratio");
    rss.report(run);

    if (run.opt.trace) {
        // Totals over the traced passes.
        const auto totals = totalsByName(run.tracer.merged());
        const auto busy = [&](const char* name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.busy_s;
        };
        const auto count = [](std::uint64_t n) {
            return static_cast<double>(n);
        };
        run.report.metric("harness.parallel_sweep.busy_s",
                          busy("harness.parallel_sweep.run_grid"), "s");
        run.report.metric("harness.parallel_sweep.cells",
                          count(traced_exec.cells), "count");
        run.report.metric("harness.parallel_sweep.trace_walks",
                          count(traced_exec.trace_walks), "count");
        run.report.metric("harness.parallel_sweep.batched_cells",
                          count(traced_exec.batched_cells), "count");
        run.report.metric("harness.parallel_sweep.fused_cells",
                          count(traced_exec.fused_cells), "count");
        run.report.metric("harness.parallel_sweep.virtual_cells",
                          count(traced_exec.virtual_cells), "count");
        run.report.metric("harness.parallel_sweep.cells_per_walk",
                          static_cast<double>(traced_exec.cells)
                                  / static_cast<double>(
                                          traced_exec.trace_walks),
                          "ratio");
        reportSpanLayers(run);
    }
}

namespace
{

/** One call of an analysis driver. */
struct AnalysisTask
{
    enum class Kind
    {
        Alias,   //!< fig13: AliasAnalyzer::run on one trace
        Ideal,   //!< hashed vs ideal-index FCM/DFCM on one trace
        Hybrid,  //!< fig16: runBenchmarks of one hybrid config
    };
    Kind kind;
    std::string trace;          //!< Alias, Ideal
    bool differential = false;  //!< Alias
    PredictorConfig config;     //!< Hybrid
};

/** What one task produced, and its library calls for the spans. */
struct TaskResult
{
    struct Call
    {
        const char* span;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint64_t records;
    };
    std::vector<PredictorStats> stats;
    vpred::AliasBreakdown breakdown;  //!< Alias only
    std::vector<Call> calls;
};

/** The pass's calls, longest kind first, so the pool does not idle
 *  behind one long call at the end; a fixed order also keeps which
 *  calls overlap, and so the pass's peak memory, the same run to run. */
std::vector<AnalysisTask>
analysisTasks()
{
    const std::vector<std::string>& names =
            vpred::workloads::benchmarkNames();
    std::vector<AnalysisTask> tasks;
    for (unsigned l2 : vpred::harness::paperL2Bits()) {
        for (const PredictorKind kind : {PredictorKind::PerfectStrideFcm,
                                         PredictorKind::PerfectStrideDfcm}) {
            PredictorConfig cfg;
            cfg.l1_bits = 16;
            cfg.l2_bits = l2;
            cfg.kind = kind;
            tasks.push_back({AnalysisTask::Kind::Hybrid, "", false, cfg});
        }
    }
    for (const std::string& name : names)
        tasks.push_back({AnalysisTask::Kind::Ideal, name, false, {}});
    for (const bool differential : {false, true})
        for (const std::string& name : names)
            tasks.push_back({AnalysisTask::Kind::Alias, name, differential,
                             {}});
    return tasks;
}

vpred::FcmConfig
aliasGeometry()
{
    vpred::FcmConfig cfg;  // Figure 13: 2^12-entry level 1 and level 2
    cfg.l1_bits = 12;
    cfg.l2_bits = 12;
    return cfg;
}

TaskResult
runTask(const AnalysisTask& task, TraceCache& cache)
{
    TaskResult r;
    const auto timed = [&](const char* span, std::uint64_t records,
                           const auto& call) {
        const std::uint64_t t0 = nowNs();
        call();
        r.calls.push_back({span, t0, nowNs(), records});
    };
    switch (task.kind) {
    case AnalysisTask::Kind::Alias: {
        const auto trace = cache.getSpan(task.trace);
        vpred::AliasAnalyzer analyzer(aliasGeometry(), task.differential);
        timed("core.alias_analysis.run", trace.size(),
              [&] { r.breakdown = analyzer.run(trace); });
        r.stats.push_back(r.breakdown.total());
        break;
    }
    case AnalysisTask::Kind::Ideal: {
        // The ablation at the paper's 2^12-entry level 2 (history
        // order 3), on the first quarter of the trace: the
        // string-keyed ideal tables run about twenty times slower
        // than the rest of the pass.
        const auto whole = cache.getSpan(task.trace);
        const auto trace = whole.first(whole.size() / 4);
        vpred::FcmConfig fcm_cfg;
        fcm_cfg.l1_bits = 16;
        fcm_cfg.l2_bits = 12;
        vpred::DfcmConfig dfcm_cfg;
        dfcm_cfg.l1_bits = 16;
        dfcm_cfg.l2_bits = 12;
        vpred::FcmPredictor fcm(fcm_cfg);
        vpred::DfcmPredictor dfcm(dfcm_cfg);
        timed("core.run_trace", 2 * trace.size(), [&] {
            r.stats.push_back(vpred::runTrace(fcm, trace));
            r.stats.push_back(vpred::runTrace(dfcm, trace));
        });
        for (const bool differential : {false, true}) {
            vpred::IdealContextPredictor ideal(16, fcm.order(),
                                               differential);
            timed("core.ideal_context.run", trace.size(), [&] {
                r.stats.push_back(vpred::runTrace(ideal, trace));
            });
        }
        break;
    }
    case AnalysisTask::Kind::Hybrid: {
        std::uint64_t suite = 0;
        for (const std::string& name : vpred::workloads::benchmarkNames())
            suite += cache.getSpan(name).size();
        timed("harness.experiment.run_benchmarks", suite, [&] {
            r.stats.push_back(
                    vpred::harness::runBenchmarks(cache, task.config)
                            .total);
        });
        break;
    }
    }
    return r;
}

std::uint64_t
recordsOf(const std::vector<TaskResult>& results, const char* span)
{
    std::uint64_t n = 0;
    for (const TaskResult& r : results)
        for (const TaskResult::Call& c : r.calls)
            if (span == nullptr || std::string(c.span) == span)
                n += c.records;
    return n;
}

bool
sameResults(const std::vector<TaskResult>& a,
            const std::vector<TaskResult>& b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!std::equal(a[i].stats.begin(), a[i].stats.end(),
                        b[i].stats.begin(), b[i].stats.end(), sameStats))
            return false;
    return true;
}

} // namespace

void
runAnalysis(Run& run)
{
    std::unique_ptr<TraceCache> cache = setUpTraces(run, kAnalysisScale);
    const std::vector<AnalysisTask> tasks = analysisTasks();
    // The drivers run these calls one after another; here they share
    // the harness thread pool, so a pass samples every hardware
    // thread instead of the one a serial run happens to land on.
    vpred::harness::ThreadPool pool(
            std::max(1u, std::thread::hardware_concurrency()));
    run.report.note("analysis: " + std::to_string(tasks.size())
                    + " driver calls over the 8 traces, "
                    + std::to_string(pool.jobs()) + " jobs");

    std::vector<TaskResult> first;
    std::vector<double> untraced_rates, traced_rates;
    PeakRssPerPass rss;
    const std::uint64_t start = nowNs();
    for (int pass = 0; morePasses(run, pass, start); ++pass) {
        const bool traced = tracedPass(run, pass);
        SpanBuffer* spans = traced ? run.spans : nullptr;
        rss.begin();
        std::vector<TaskResult> results(tasks.size());
        const std::uint64_t t0 = nowNs();
        {
            const ScopedSpan pass_span(spans, "bench.analysis_pass",
                                       static_cast<std::uint64_t>(pass),
                                       0);
            pool.parallelFor(tasks.size(), [&](std::size_t i) {
                results[i] = runTask(tasks[i], *cache);
            });
            if (spans)
                for (const TaskResult& r : results)
                    for (const TaskResult::Call& c : r.calls)
                        spans->add(c.span,
                                   static_cast<std::uint64_t>(pass),
                                   pass_span.id(), c.start_ns, c.end_ns);
        }
        const std::uint64_t records = recordsOf(results, nullptr);
        const double rate = static_cast<double>(records)
                / secondsSince(t0);
        (traced ? traced_rates : untraced_rates).push_back(rate);
        rss.end();
        run.report.operations(records, 0);
        if (pass == 0)
            first = std::move(results);
        else
            run.report.check(sameResults(results, first),
                             "analysis pass " + std::to_string(pass)
                                     + " reproduces pass 0");
    }

    // Each taxonomy must account for exactly the predictions the plain
    // FCM/DFCM of the same geometry makes on the same trace.
    PredictorStats total;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        for (const PredictorStats& st : first[i].stats)
            total += st;
        if (tasks[i].kind != AnalysisTask::Kind::Alias)
            continue;
        const auto trace = cache->getSpan(tasks[i].trace);
        PredictorStats plain;
        if (tasks[i].differential) {
            vpred::DfcmConfig dfcm_cfg;
            dfcm_cfg.l1_bits = 12;
            dfcm_cfg.l2_bits = 12;
            vpred::DfcmPredictor p(dfcm_cfg);
            plain = vpred::runTrace(p, trace);
        } else {
            vpred::FcmPredictor p(aliasGeometry());
            plain = vpred::runTrace(p, trace);
        }
        run.report.check(sameStats(first[i].breakdown.total(), plain),
                         std::string(tasks[i].differential ? "dfcm"
                                                           : "fcm")
                                 + " alias breakdown of " + tasks[i].trace
                                 + " totals runTrace");
    }

    reportRates(run, untraced_rates, traced_rates);
    run.report.metric("hit_rate", total.accuracy(), "ratio");
    rss.report(run);

    if (run.opt.trace) {
        // Totals over the traced passes, which all do the same work;
        // busy time sums over the pool's threads.
        const double traced = static_cast<double>(traced_rates.size());
        const auto totals = totalsByName(run.tracer.merged());
        const auto busy = [&](const char* name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.busy_s;
        };
        const auto records = [&](const char* span) {
            return traced * static_cast<double>(recordsOf(first, span));
        };
        run.report.metric("core.alias_analysis.busy_s",
                          busy("core.alias_analysis.run"), "s");
        run.report.metric("core.alias_analysis.records",
                          records("core.alias_analysis.run"), "count");
        run.report.metric("core.ideal_context.busy_s",
                          busy("core.ideal_context.run"), "s");
        run.report.metric("core.ideal_context.records",
                          records("core.ideal_context.run"), "count");
        run.report.metric("harness.experiment.busy_s",
                          busy("harness.experiment.run_benchmarks"), "s");
        run.report.metric("harness.experiment.records",
                          records("harness.experiment.run_benchmarks"),
                          "count");
        reportSpanLayers(run);
    }
}

} // namespace perfbench
