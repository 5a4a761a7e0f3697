#include <malloc.h>

#include <string>

#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

struct LayerMetric
{
    const char* name;
    const char* unit;
};

/** Every per-layer metric, with its unit (see README.md for which
 *  end-to-end metric each should move). */
constexpr LayerMetric kPerLayer[] = {
        {"sim.instructions", "count"},
        {"sim.records", "count"},
        {"sim.generate_s", "s"},
        {"sim.instructions_per_s", "1/s"},
        {"harness.parallel_sweep.busy_s", "s"},
        {"harness.parallel_sweep.cells", "count"},
        {"harness.parallel_sweep.trace_walks", "count"},
        {"harness.parallel_sweep.batched_cells", "count"},
        {"harness.parallel_sweep.fused_cells", "count"},
        {"harness.parallel_sweep.virtual_cells", "count"},
        {"harness.parallel_sweep.cells_per_walk", "ratio"},
        {"core.alias_analysis.busy_s", "s"},
        {"core.alias_analysis.records", "count"},
        {"core.ideal_context.busy_s", "s"},
        {"core.ideal_context.records", "count"},
        {"harness.experiment.busy_s", "s"},
        {"harness.experiment.records", "count"},
        {"service.pump.calls", "count"},
        {"service.pump.busy_s", "s"},
        {"service.pump.records_per_call", "ratio"},
        {"service.shard.evictions_per_record", "ratio"},
        {"service.shard.restores_per_record", "ratio"},
        {"service.packing.lane_occupancy", "ratio"},
        {"service.packing.gather_share", "ratio"},
        {"service.try_ingest.calls", "count"},
        {"service.try_ingest.refused", "count"},
        {"service.try_ingest.busy_s", "s"},
        {"service.ingest.publish_batch", "ratio"},
        {"service.ingest.full_events", "count"},
        {"service.drain.quota_grows", "count"},
        {"service.drain.quota_shrinks", "count"},
        {"service.drain.max_backlog", "count"},
        {"service.generator.lag_p99_us", "us"},
        {"service.snapshot.busy_s", "s"},
        {"service.snapshot.bytes", "bytes"},
        {"service.restore.busy_s", "s"},
        {"bench.self_s", "s"},
        {"sim.self_s", "s"},
        {"harness.self_s", "s"},
        {"core.self_s", "s"},
        {"service.self_s", "s"},
        {"bench.traced_over_untraced", "ratio"},
};

} // namespace

std::unique_ptr<vpred::harness::TraceCache>
generateTraces(Run& run, double scale, std::uint64_t request)
{
    // An empty store directory keeps the persistent trace store off:
    // every set-up runs the simulator, as a fresh figure driver does.
    auto cache = std::make_unique<vpred::harness::TraceCache>(scale, "");
    const ScopedSpan span(run.spans, "sim.prewarm", request, 0);
    cache->prewarm(vpred::workloads::benchmarkNames());
    return cache;
}

void
reportSimLayer(Run& run, vpred::harness::TraceCache& cache,
               double generate_s)
{
    std::uint64_t instructions = 0;
    std::uint64_t records = 0;
    for (const std::string& name : vpred::workloads::benchmarkNames()) {
        instructions += cache.instructions(name);
        records += cache.getSpan(name).size();
    }
    run.report.metric("sim.instructions",
                      static_cast<double>(instructions), "count");
    run.report.metric("sim.records", static_cast<double>(records),
                      "count");
    run.report.metric("sim.generate_s", generate_s, "s");
    run.report.metric("sim.instructions_per_s",
                      static_cast<double>(instructions) / generate_s,
                      "1/s");
}

void
timedSetups(Run& run, const std::function<void()>& release,
            const std::function<void(int)>& setup)
{
    std::vector<double> times;
    for (int k = 0; k < Run::kSetups; ++k) {
        release();
        const std::uint64_t t0 = nowNs();
        setup(k);
        times.push_back(secondsSince(t0));
    }
    run.report.metric("setup_s", median(times), "s");
    // Hand the heap memory the earlier set-ups freed back to the
    // kernel: how much of it the allocator keeps depends on which
    // thread generated which trace, and would leak into peak_rss_mib.
    malloc_trim(0);
}

void
PeakRssPerPass::report(Run& run) const
{
    run.report.check(restarted_, "restart the peak resident set");
    run.report.metric("peak_rss_mib", median(peaks_), "MiB");
}

void
reportSpanLayers(Run& run)
{
    const std::vector<Span> spans = run.tracer.merged();
    const std::map<std::string, double> self = selfByLayer(spans);
    for (const char* layer : {"bench", "sim", "harness", "core",
                              "service"}) {
        const auto it = self.find(layer);
        run.report.metric(std::string(layer) + ".self_s",
                          it == self.end() ? 0.0 : it->second, "s");
    }
    for (const LayerMetric& m : kPerLayer)
        if (!run.report.has(m.name))
            run.report.metric(m.name, 0.0, m.unit);

    const std::string path = run.opt.work_dir + "/spans_"
            + run.opt.workload + "_seed" + std::to_string(run.opt.seed)
            + ".jsonl";
    if (writeSpans(path, spans, run.origin_ns))
        run.report.note("spans written to " + path + " ("
                        + std::to_string(spans.size()) + " spans)");
    else
        run.report.check(false, "cannot write " + path);
}

} // namespace perfbench
