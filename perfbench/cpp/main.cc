/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload <sweep|analysis|service_churn|service_hot>
 *             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
 *
 * Prints each metric as it is measured and, as the last line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 1 the run records spans around its calls into the library,
 * writes them to <work-dir>/spans_<workload>_seed<n>.jsonl and
 * reports the per-layer metrics. Exits 1 when a correctness check
 * fails, 2 on bad arguments or an error.
 */

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <sweep|analysis|"
                 "service_churn|service_hot> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n";
    std::exit(2);
}

perfbench::RunOptions
parseArgs(int argc, char** argv)
{
    perfbench::RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (key == "--seed") {
                opt.seed = std::stoull(value);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (key == "--work-dir") {
                opt.work_dir = value;
            } else {
                usage("unknown argument " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    const perfbench::RunOptions opt = parseArgs(argc, argv);
    perfbench::Report report(std::cout);
    perfbench::Run run{opt, report, {}, nullptr, perfbench::nowNs()};
    if (opt.trace)
        run.spans = &run.tracer.newBuffer();

    try {
        std::filesystem::create_directories(opt.work_dir);
        std::cout << "perfbench " << opt.workload << " seed " << opt.seed
                  << " seconds " << opt.seconds << " trace "
                  << (opt.trace ? 1 : 0) << "\n";
        if (opt.workload == "sweep")
            perfbench::runSweep(run);
        else if (opt.workload == "analysis")
            perfbench::runAnalysis(run);
        else if (opt.workload == "service_churn")
            perfbench::runServiceChurn(run);
        else if (opt.workload == "service_hot")
            perfbench::runServiceHot(run);
        else
            usage("unknown workload " + opt.workload);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    std::cout << "  failed/attempted = " << report.failed() << "/"
              << report.attempted() << "\n"
              << report.summaryJson() << std::endl;
    return report.correct() ? 0 : 1;
}
