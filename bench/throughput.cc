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
 */

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
#include "workloads/workload.hh"

namespace
{

using namespace vpred;

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

/** Best-of-N wall time of f() in seconds. Every f() stores its
 *  stats, which are cross-checked afterwards, so the work stays
 *  observable. */
template <class F>
double
bestSeconds(int repeats, F&& f)
{
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        f();
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

    const double virt_s = bestSeconds(kRepeats, [&] {
        virt_stats.clear();
        for (unsigned l2 : l2s) {
            auto p = makePredictor(columnConfig(kind, l2));
            virt_stats.push_back(runVirtualLoop(*p, trace));
        }
    });
    exec.cells += l2s.size();
    exec.virtual_cells += l2s.size();
    exec.trace_walks += l2s.size() * kRepeats;

    const double fused_s = bestSeconds(kRepeats, [&] {
        fused_stats.clear();
        for (unsigned l2 : l2s) {
            auto p = makePredictor(columnConfig(kind, l2));
            fused_stats.push_back(runTrace(*p, trace));
        }
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
        const double scalar = bestSeconds(kRepeats, [&] {
            scalar_stats = kernel.runTrace(span, SimdBackend::Scalar);
        });
        const double simd = bestSeconds(kRepeats, [&] {
            multi_stats = kernel.runTrace(span);
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
    PredictorStats virt, fused;

    const double virt_s = bestSeconds(3, [&] {
        auto p = makePredictor(cfg);
        virt = runVirtualLoop(*p, trace);
    });
    const double fused_s = bestSeconds(3, [&] {
        auto p = makePredictor(cfg);
        fused = runTrace(*p, trace);
    });
    exec.cells += 2;
    exec.virtual_cells += 1;
    exec.fused_cells += 1;
    exec.trace_walks += 6;
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

} // namespace

int
main()
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
    return 0;
}
