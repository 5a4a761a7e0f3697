/**
 * @file
 * sweep_tool — run an arbitrary (predictor × l1 × l2) grid over the
 * workload suite on the parallel sweep executor and emit the results
 * as a table plus a results/BENCH_<name>.json file.
 *
 *     sweep_tool [--kind dfcm] [--l1 10,12,14,16] [--l2 8,...,20]
 *                [--workloads go,li,...] [--jobs N] [--scale X]
 *                [--out NAME]
 *
 * Defaults reproduce the Figure 11(a) DFCM grid over the paper's
 * eight-benchmark suite. --jobs overrides REPRO_JOBS, --scale
 * overrides REPRO_TRACE_SCALE.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parse_util.hh"
#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "harness/results_json.hh"
#include "harness/sweep.hh"
#include "harness/table_printer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace vpred;

const std::vector<std::pair<std::string, PredictorKind>> kKinds = {
    {"lvp", PredictorKind::Lvp},
    {"stride", PredictorKind::Stride},
    {"2delta", PredictorKind::TwoDelta},
    {"fcm", PredictorKind::Fcm},
    {"dfcm", PredictorKind::Dfcm},
    {"hybrid-stride+fcm", PredictorKind::HybridStrideFcm},
    {"hybrid-stride+dfcm", PredictorKind::HybridStrideDfcm},
    {"perfect-stride+fcm", PredictorKind::PerfectStrideFcm},
    {"perfect-stride+dfcm", PredictorKind::PerfectStrideDfcm},
};

bool
parseKind(const std::string& s, PredictorKind& out)
{
    for (const auto& [name, kind] : kKinds) {
        if (s == name) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitList(const std::string& s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
parseUnsignedList(const std::string& s, std::vector<unsigned>& out)
{
    out.clear();
    for (const std::string& item : splitList(s)) {
        const std::optional<unsigned long long> v = parseUInt(item, 64);
        if (!v)
            return false;
        out.push_back(static_cast<unsigned>(*v));
    }
    return !out.empty();
}

int
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --kind K        predictor kind (default dfcm); one of:\n"
        << "                  ";
    for (const auto& [name, kind] : kKinds)
        std::cerr << name << " ";
    std::cerr
        << "\n"
        << "  --l1 A,B,...    log2 level-1 sizes (default 10,12,14,16)\n"
        << "  --l2 A,B,...    log2 level-2 sizes (default 8,10,...,20)\n"
        << "  --workloads ... comma-separated workload names\n"
        << "                  (default: the eight-benchmark suite)\n"
        << "  --jobs N        worker threads (default REPRO_JOBS or all"
           " cores)\n"
        << "  --scale X       trace scale (default REPRO_TRACE_SCALE or"
           " 1.0)\n"
        << "  --out NAME      JSON stem: results/BENCH_<NAME>.json\n"
        << "                  (default sweep_tool)\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using harness::TablePrinter;

    PredictorKind kind = PredictorKind::Dfcm;
    std::vector<unsigned> l1_bits = {10, 12, 14, 16};
    std::vector<unsigned> l2_bits = harness::paperL2Bits();
    std::vector<std::string> workload_names =
            workloads::benchmarkNames();
    unsigned jobs = 0;
    double scale = 0.0;
    std::string out_name = "sweep_tool";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&](bool parsed_ok) {
            if (value == nullptr || !parsed_ok) {
                std::cerr << "sweep_tool: bad or missing value for "
                          << arg << "\n";
                std::exit(usage(argv[0]));
            }
            ++i;
        };
        if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (arg == "--kind") {
            need(value != nullptr && parseKind(value, kind));
        } else if (arg == "--l1") {
            need(value != nullptr && parseUnsignedList(value, l1_bits));
        } else if (arg == "--l2") {
            need(value != nullptr && parseUnsignedList(value, l2_bits));
        } else if (arg == "--workloads") {
            need(value != nullptr);
            workload_names = splitList(value);
        } else if (arg == "--jobs") {
            const std::optional<unsigned long long> v =
                    value ? parseUInt(value, 512) : std::nullopt;
            need(v.has_value() && v.value_or(0) >= 1);
            jobs = static_cast<unsigned>(v.value_or(0));
        } else if (arg == "--scale") {
            const std::optional<double> v =
                    value ? parseDouble(value) : std::nullopt;
            need(v.has_value() && v.value_or(0.0) > 0.0);
            scale = v.value_or(0.0);
        } else if (arg == "--out") {
            need(value != nullptr && *value != '\0');
            out_name = value;
        } else {
            std::cerr << "sweep_tool: unknown option " << arg << "\n";
            return usage(argv[0]);
        }
    }

    // Validate workload names up front for a friendly error.
    for (const std::string& name : workload_names) {
        try {
            workloads::findWorkload(name);
        } catch (const std::out_of_range&) {
            std::cerr << "sweep_tool: unknown workload '" << name
                      << "'; available:";
            for (const auto& w : workloads::allWorkloads())
                std::cerr << " " << w.name;
            std::cerr << "\n";
            return 2;
        }
    }

    harness::TraceCache cache(scale);
    harness::ParallelSweep sweep(cache, jobs);
    harness::ResultsJsonWriter json(out_name, cache.scale(),
                                    sweep.jobs());

    const std::vector<PredictorConfig> configs =
            harness::twoLevelGrid(kind, l1_bits, l2_bits);
    std::cout << "sweep: " << kindName(kind) << ", "
              << configs.size() << " configs x "
              << workload_names.size() << " workloads, "
              << sweep.jobs() << " jobs, trace scale " << cache.scale()
              << "\n\n";

    const auto start = std::chrono::steady_clock::now();
    const std::vector<harness::SuiteResult> results =
            sweep.runGrid(configs, workload_names);
    const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    json.addGrid(configs, results);
    json.setExecution(sweep.lastExecution());

    TablePrinter table({"predictor", "l1_bits", "l2_bits", "size_kbit",
                        "accuracy"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        table.addRow({results[i].predictor,
                      TablePrinter::fmt(std::uint64_t{configs[i].l1_bits}),
                      TablePrinter::fmt(std::uint64_t{configs[i].l2_bits}),
                      TablePrinter::fmt(results[i].storageKbit(), 1),
                      TablePrinter::fmt(results[i].accuracy())});
    }
    table.print(std::cout);
    const harness::SweepExecution& exec = sweep.lastExecution();
    std::cout << "\n[" << configs.size() * workload_names.size()
              << " cells in " << TablePrinter::fmt(wall, 2) << " s; path "
              << exec.path() << ", " << exec.trace_walks
              << " trace walks]\n";

    if (json.write())
        std::cout << "wrote results/BENCH_" << out_name << ".json\n";
    return 0;
}
