#include "harness/batch_sweep.hh"

#include <map>
#include <tuple>

namespace vpred::harness
{

bool
batchableConfig(const PredictorConfig& config)
{
    // value_bits <= 32 mirrors the kernels' narrow level-2 storage.
    return (config.kind == PredictorKind::Fcm ||
            config.kind == PredictorKind::Dfcm) &&
           config.update_delay == 0 && config.value_bits <= 32;
}

BatchPlan
planBatchSweep(const std::vector<PredictorConfig>& configs)
{
    BatchPlan plan;
    // Group by everything but l2_bits, preserving first-appearance
    // order so the plan (and therefore any scheduling) is
    // deterministic. stride_bits only matters for the DFCM.
    using Key = std::tuple<PredictorKind, unsigned, unsigned, unsigned,
                           unsigned>;
    std::map<Key, std::size_t> group_of;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const PredictorConfig& c = configs[i];
        if (!batchableConfig(c)) {
            plan.singles.push_back(i);
            continue;
        }
        const unsigned stride = c.kind == PredictorKind::Dfcm
            ? c.stride_bits : 0;
        const Key key{c.kind, c.l1_bits, c.value_bits, stride,
                      c.hash_shift};
        auto [it, inserted] =
                group_of.try_emplace(key, plan.groups.size());
        if (inserted) {
            BatchGroup g;
            g.kind = c.kind;
            g.geom.l1_bits = c.l1_bits;
            g.geom.value_bits = c.value_bits;
            g.geom.stride_bits = c.stride_bits;
            g.geom.hash_shift = c.hash_shift;
            plan.groups.push_back(std::move(g));
        }
        BatchGroup& g = plan.groups[it->second];
        g.geom.l2_bits.push_back(c.l2_bits);
        g.config_indices.push_back(i);
    }

    // A single-column group would just be the per-config walk with
    // extra bookkeeping; demote it.
    std::vector<BatchGroup> kept;
    for (BatchGroup& g : plan.groups) {
        if (g.config_indices.size() >= 2)
            kept.push_back(std::move(g));
        else
            plan.singles.push_back(g.config_indices.front());
    }
    plan.groups = std::move(kept);
    return plan;
}

std::vector<PredictorStats>
runBatchGroup(const BatchGroup& group, std::span<const TraceRecord> trace)
{
    if (group.kind == PredictorKind::Fcm) {
        MultiGeomFcmKernel kernel(group.geom);
        return kernel.runTrace(trace);
    }
    MultiGeomDfcmKernel kernel(group.geom);
    return kernel.runTrace(trace);
}

} // namespace vpred::harness
