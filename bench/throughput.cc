/**
 * @file
 * Engineering throughput benchmarks. Not a paper figure — this
 * documents that trace-driven sweeps over billions of records are
 * feasible, and records the perf trajectory across PRs.
 *
 * Running the binary with no arguments performs a deterministic
 * single-threaded comparison of the three execution paths —
 *
 *   virtual     per-record predict() + update() through the base
 *               class (the historical default predictAndUpdate),
 *   fused       the devirtualized runTraceKernel with the fused
 *               per-family predictAndUpdate overrides,
 *   multi-geom  MultiGeom{Fcm,Dfcm}Kernel evaluating the whole
 *               fig-10 l2_bits column in one trace walk
 *
 * — verifies the paths agree bit-for-bit, prints a table, and emits
 * results/BENCH_throughput.json (records/sec and speedups under
 * "metrics") through the shared results_json emitter.
 *
 * Passing any google-benchmark flag (e.g. --benchmark_filter=.*) or
 * setting REPRO_GBENCH=1 additionally runs the microbenchmark suite
 * for interactive profiling.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <tuple>
#include <utility>

#include "core/cpu_features.hh"
#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/multi_geom.hh"
#include "core/predictor_factory.hh"
#include "core/stats.hh"
#include "harness/results_json.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "harness/trace_cache.hh"
#include "tracegen/mixer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace vpred;

const ValueTrace&
benchTrace()
{
    static const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 24,
             .constant_instructions = 6,
             .context_instructions = 10,
             .random_instructions = 2,
             .seed = 20240607},
            1 << 17);
    return trace;
}

PredictorConfig
columnConfig(PredictorKind kind, unsigned l2_bits)
{
    PredictorConfig cfg;
    cfg.kind = kind;
    cfg.l1_bits = 16;
    cfg.l2_bits = l2_bits;
    return cfg;
}

/**
 * The historical per-record path: two virtual calls through the
 * abstract interface. The concrete type is hidden behind the factory
 * (a separate translation unit), so the dispatch stays virtual.
 */
PredictorStats
runVirtualLoop(ValuePredictor& predictor, std::span<const TraceRecord> trace)
{
    PredictorStats stats;
    for (const TraceRecord& rec : trace) {
        stats.record(predictor.predict(rec.pc) == rec.value);
        predictor.update(rec.pc, rec.value);
    }
    return stats;
}

/** Best-of-N wall time of f() in seconds (f returns a checksum that
 *  is accumulated to keep the work observable). */
template <class F>
double
bestSeconds(int repeats, std::uint64_t& checksum, F&& f)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        checksum += f();
        const double s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        best = std::min(best, s);
    }
    return best;
}

/**
 * Compare the execution paths on one predictor family's fig-10
 * l2_bits column over a real workload trace, record metrics, tally
 * the work into @p exec, and abort loudly if any path disagrees.
 * The multi-geometry kernel is timed twice in the same process —
 * pinned to the scalar reference path and through the runtime SIMD
 * dispatch — so the SIMD speedup is measured head-to-head rather
 * than inferred across runs.
 */
void
compareColumn(PredictorKind kind, std::span<const TraceRecord> trace,
              harness::ResultsJsonWriter& json,
              harness::TablePrinter& table,
              harness::SweepExecution& exec)
{
    const std::vector<unsigned>& l2s = harness::paperL2Bits();
    const double cell_records = static_cast<double>(trace.size())
        * static_cast<double>(l2s.size());
    const std::string fam = kindName(kind);
    constexpr int kRepeats = 3;

    std::vector<PredictorStats> virt_stats, fused_stats;
    std::uint64_t sink = 0;

    const double virt_s = bestSeconds(kRepeats, sink, [&] {
        virt_stats.clear();
        for (unsigned l2 : l2s) {
            auto p = makePredictor(columnConfig(kind, l2));
            virt_stats.push_back(runVirtualLoop(*p, trace));
        }
        return virt_stats.back().correct;
    });
    exec.cells += l2s.size();
    exec.virtual_cells += l2s.size();
    exec.trace_walks += l2s.size() * kRepeats;

    const double fused_s = bestSeconds(kRepeats, sink, [&] {
        fused_stats.clear();
        for (unsigned l2 : l2s) {
            auto p = makePredictor(columnConfig(kind, l2));
            fused_stats.push_back(runTrace(*p, trace));
        }
        return fused_stats.back().correct;
    });
    exec.cells += l2s.size();
    exec.fused_cells += l2s.size();
    exec.trace_walks += l2s.size() * kRepeats;

    MultiGeomConfig geom;
    geom.l1_bits = 16;
    geom.l2_bits = l2s;
    const std::span<const TraceRecord> span{trace.data(), trace.size()};
    std::vector<PredictorStats> scalar_stats, multi_stats;
    const auto runBoth = [&](auto& kernel) {
        const double scalar = bestSeconds(kRepeats, sink, [&] {
            scalar_stats = kernel.runTrace(span, SimdBackend::Scalar);
            return scalar_stats.back().correct;
        });
        const double simd = bestSeconds(kRepeats, sink, [&] {
            multi_stats = kernel.runTrace(span);
            return multi_stats.back().correct;
        });
        return std::pair{scalar, simd};
    };
    double scalar_s = 0.0, multi_s = 0.0;
    if (kind == PredictorKind::Fcm) {
        MultiGeomFcmKernel kernel(geom);
        std::tie(scalar_s, multi_s) = runBoth(kernel);
    } else {
        MultiGeomDfcmKernel kernel(geom);
        std::tie(scalar_s, multi_s) = runBoth(kernel);
    }
    // One multi-geometry walk evaluates the whole column; the two
    // variants each re-evaluate every cell of it.
    exec.cells += 2 * l2s.size();
    exec.batched_cells += 2 * l2s.size();
    exec.trace_walks += 2 * kRepeats;
    benchmark::DoNotOptimize(sink);

    for (std::size_t c = 0; c < l2s.size(); ++c) {
        if (virt_stats[c] != fused_stats[c] ||
            virt_stats[c] != scalar_stats[c] ||
            virt_stats[c] != multi_stats[c]) {
            std::cerr << "FATAL: " << fam << " l2=" << l2s[c]
                      << ": execution paths disagree\n";
            std::exit(1);
        }
    }

    const double virt_rps = cell_records / virt_s;
    const double fused_rps = cell_records / fused_s;
    const double scalar_rps = cell_records / scalar_s;
    const double multi_rps = cell_records / multi_s;
    json.addMetric(fam + "_l2column_virtual_records_per_sec", virt_rps);
    json.addMetric(fam + "_l2column_fused_records_per_sec", fused_rps);
    json.addMetric(fam + "_l2column_multigeom_scalar_records_per_sec",
                   scalar_rps);
    json.addMetric(fam + "_l2column_multigeom_records_per_sec",
                   multi_rps);
    json.addMetric(fam + "_multigeom_speedup_vs_virtual",
                   virt_s / multi_s);
    json.addMetric(fam + "_multigeom_speedup_vs_fused", fused_s / multi_s);
    json.addMetric(fam + "_simd_speedup_vs_scalar", scalar_s / multi_s);

    using harness::TablePrinter;
    table.addRow({fam, TablePrinter::fmt(virt_rps / 1e6, 1),
                  TablePrinter::fmt(fused_rps / 1e6, 1),
                  TablePrinter::fmt(scalar_rps / 1e6, 1),
                  TablePrinter::fmt(multi_rps / 1e6, 1),
                  TablePrinter::fmt(scalar_s / multi_s, 2),
                  TablePrinter::fmt(virt_s / multi_s, 2)});
}

/** Single-config kernel-vs-virtual ratio for one family. */
void
compareFamily(PredictorKind kind, std::span<const TraceRecord> trace,
              harness::ResultsJsonWriter& json,
              harness::SweepExecution& exec)
{
    const PredictorConfig cfg = columnConfig(kind, 12);
    const std::string fam = kindName(kind);
    std::uint64_t sink = 0;
    PredictorStats virt, fused;

    const double virt_s = bestSeconds(3, sink, [&] {
        auto p = makePredictor(cfg);
        virt = runVirtualLoop(*p, trace);
        return virt.correct;
    });
    const double fused_s = bestSeconds(3, sink, [&] {
        auto p = makePredictor(cfg);
        fused = runTrace(*p, trace);
        return fused.correct;
    });
    exec.cells += 2;
    exec.virtual_cells += 1;
    exec.fused_cells += 1;
    exec.trace_walks += 6;
    benchmark::DoNotOptimize(sink);
    if (virt != fused) {
        std::cerr << "FATAL: " << fam
                  << ": fused path disagrees with virtual path\n";
        std::exit(1);
    }
    const double n = static_cast<double>(trace.size());
    json.addMetric(fam + "_virtual_records_per_sec", n / virt_s);
    json.addMetric(fam + "_fused_records_per_sec", n / fused_s);
    json.addMetric(fam + "_fused_speedup_vs_virtual", virt_s / fused_s);
}

// --- google-benchmark microbenchmarks (interactive profiling) ------

void
runPredictor(benchmark::State& state, PredictorKind kind)
{
    PredictorConfig cfg;
    cfg.kind = kind;
    cfg.l1_bits = 16;
    cfg.l2_bits = 12;
    auto predictor = makePredictor(cfg);
    const ValueTrace& trace = benchTrace();

    std::uint64_t correct = 0;
    for (auto _ : state) {
        correct += runTrace(*predictor, trace).correct;
        benchmark::DoNotOptimize(correct);
    }
    state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void BM_Lvp(benchmark::State& s) { runPredictor(s, PredictorKind::Lvp); }
void BM_Stride(benchmark::State& s)
{
    runPredictor(s, PredictorKind::Stride);
}
void BM_TwoDelta(benchmark::State& s)
{
    runPredictor(s, PredictorKind::TwoDelta);
}
void BM_Fcm(benchmark::State& s) { runPredictor(s, PredictorKind::Fcm); }
void BM_Dfcm(benchmark::State& s)
{
    runPredictor(s, PredictorKind::Dfcm);
}
void BM_PerfectHybrid(benchmark::State& s)
{
    runPredictor(s, PredictorKind::PerfectStrideDfcm);
}

void
BM_DfcmVirtualLoop(benchmark::State& state)
{
    auto predictor = makePredictor(columnConfig(PredictorKind::Dfcm, 12));
    const ValueTrace& trace = benchTrace();
    std::uint64_t correct = 0;
    for (auto _ : state) {
        correct += runVirtualLoop(*predictor, trace).correct;
        benchmark::DoNotOptimize(correct);
    }
    state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_DfcmMultiGeomColumn(benchmark::State& state)
{
    MultiGeomConfig geom;
    geom.l1_bits = 16;
    geom.l2_bits = harness::paperL2Bits();
    MultiGeomDfcmKernel kernel(geom);
    const ValueTrace& trace = benchTrace();
    std::uint64_t correct = 0;
    for (auto _ : state) {
        correct += kernel.runTrace({trace.data(), trace.size()})
                           .back()
                           .correct;
        benchmark::DoNotOptimize(correct);
    }
    // One iteration evaluates the whole column: count cell-records.
    state.SetItemsProcessed(static_cast<std::int64_t>(
            state.iterations() * trace.size() * geom.l2_bits.size()));
}

BENCHMARK(BM_Lvp);
BENCHMARK(BM_Stride);
BENCHMARK(BM_TwoDelta);
BENCHMARK(BM_Fcm);
BENCHMARK(BM_Dfcm);
BENCHMARK(BM_PerfectHybrid);
BENCHMARK(BM_DfcmVirtualLoop);
BENCHMARK(BM_DfcmMultiGeomColumn);

} // namespace

int
main(int argc, char** argv)
{
    using harness::TablePrinter;

    // A real workload trace: the comparison should see the sweeps'
    // actual locality, not the synthetic mixer's 42-instruction one.
    const std::string workload = "go";
    harness::TraceCache cache;

    // Acquire the full benchmark suite once, timed: with a warm
    // REPRO_TRACE_DIR store every trace arrives by mmap; cold runs
    // generate through the VM (and persist for next time). The split
    // between the two paths lands in the BENCH JSON so cold-generate
    // vs warm-mmap acquisition can be compared across runs.
    const auto acq_start = std::chrono::steady_clock::now();
    cache.prewarm(vpred::workloads::benchmarkNames());
    const double acq_wall =
            std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - acq_start)
                    .count();
    const harness::TraceCache::AcquisitionStats acq = cache.acquisition();
    const char* acq_path = !acq.store_enabled
            ? "vm-generate (no store)"
            : acq.generated == 0 ? "warm-mmap"
                                 : "cold-generate+persist";
    const std::span<const TraceRecord> trace = cache.getSpan(workload);

    const SimdBackend backend = bestSimdBackend();
    std::cout << "=== throughput: execution-path comparison ===\n"
              << "trace: " << workload << ", " << trace.size()
              << " records, fig-10 l2 column = "
              << harness::paperL2Bits().size()
              << " geometries, single-threaded, simd dispatch = "
              << simdBackendName(backend) << " ("
              << simdVectorBits(backend) << "-bit)\n"
              << "trace acquisition (" << acq_path << "): "
              << acq_wall * 1000.0 << " ms for the full suite ("
              << acq.store_hits << " store hits, " << acq.generated
              << " generated)\n\n";

    harness::ResultsJsonWriter json("throughput", cache.scale(),
                                    /*jobs=*/1);
    // The comparison functions tally cells and trace walks into this
    // as they run; the acquisition and SIMD fields are filled here.
    harness::SweepExecution exec;
    exec.jobs = 1;
    exec.store_enabled = acq.store_enabled;
    exec.store_hits = acq.store_hits;
    exec.store_misses = acq.store_misses;
    exec.acquisition_seconds = acq.seconds();
    exec.simd_backend = simdBackendName(backend);
    exec.vector_width = simdVectorBits(backend);
    json.addMetric("trace_records",
                   static_cast<double>(trace.size()));
    json.addMetric("trace_acquisition_wall_ms", acq_wall * 1000.0);
    json.addMetric("trace_generate_ms", acq.generate_seconds * 1000.0);
    json.addMetric("trace_mmap_load_ms", acq.load_seconds * 1000.0);
    json.addMetric("trace_store_hit_count",
                   static_cast<double>(acq.store_hits));
    json.addMetric("trace_generated_count",
                   static_cast<double>(acq.generated));

    const auto bench_start = std::chrono::steady_clock::now();

    TablePrinter table({"family", "virtual_Mrps", "fused_Mrps",
                        "mg_scalar_Mrps", "mg_simd_Mrps",
                        "simd/scalar", "simd/virt"});
    compareColumn(PredictorKind::Fcm, trace, json, table, exec);
    compareColumn(PredictorKind::Dfcm, trace, json, table, exec);
    table.print(std::cout);
    std::cout << "(Mrps = million cell-records per second over the "
                 "whole l2 column; all paths verified bit-identical)\n";

    for (PredictorKind kind :
         {PredictorKind::Lvp, PredictorKind::Stride,
          PredictorKind::TwoDelta, PredictorKind::Fcm,
          PredictorKind::Dfcm})
        compareFamily(kind, trace, json, exec);

    exec.wall_seconds =
            std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - bench_start)
                    .count();
    json.setExecution(exec);
    if (json.write())
        std::cout << "\nwrote results/BENCH_throughput.json\n";

    const char* gbench = std::getenv("REPRO_GBENCH");
    if (argc > 1 || (gbench != nullptr && *gbench == '1')) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    } else {
        std::cout << "(pass --benchmark_filter=.* or set REPRO_GBENCH=1 "
                     "for the google-benchmark suite)\n";
    }
    return 0;
}
