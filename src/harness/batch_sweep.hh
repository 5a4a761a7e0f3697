/**
 * @file
 * Batched sweep planning: route level-2 size columns of a config
 * grid through the single-pass multi-geometry kernels.
 *
 * A sweep grid cell is normally one full trace replay. When several
 * FCM (or DFCM) configs in a grid differ only in l2_bits — the shape
 * of every paper figure — they share their level-1 state and can be
 * evaluated together by MultiGeom{Fcm,Dfcm}Kernel in a single walk.
 * planBatchSweep() finds those column groups; everything else stays
 * on the per-config path. The plan covers each grid index exactly
 * once, so scattering results back preserves grid order and the
 * output is bit-identical to the unbatched sweep.
 */

#ifndef DFCM_HARNESS_BATCH_SWEEP_HH
#define DFCM_HARNESS_BATCH_SWEEP_HH

#include <cstddef>
#include <span>
#include <vector>

#include "core/multi_geom.hh"
#include "core/predictor_factory.hh"

namespace vpred::harness
{

/** True iff @p config can be evaluated by a multi-geometry kernel
 *  (plain FCM/DFCM with immediate update). */
bool batchableConfig(const PredictorConfig& config);

/**
 * One multi-geometry group: grid configs sharing everything but
 * l2_bits. geom.l2_bits[j] belongs to grid index config_indices[j].
 */
struct BatchGroup
{
    PredictorKind kind = PredictorKind::Dfcm;
    MultiGeomConfig geom;
    std::vector<std::size_t> config_indices;
};

/** Partition of a config grid into kernel groups and per-config
 *  leftovers; together they cover every grid index exactly once. */
struct BatchPlan
{
    std::vector<BatchGroup> groups;
    std::vector<std::size_t> singles;

    /** Grid configs evaluated through a multi-geometry kernel. */
    std::size_t
    batchedConfigs() const
    {
        std::size_t n = 0;
        for (const BatchGroup& g : groups)
            n += g.config_indices.size();
        return n;
    }
};

/**
 * Group @p configs into multi-geometry columns. A group needs at
 * least two members (a lone config gains nothing from the kernel).
 */
BatchPlan planBatchSweep(const std::vector<PredictorConfig>& configs);

/** Evaluate one group over one trace view (an owned ValueTrace
 *  converts implicitly; memory-mapped spans run with no copy):
 *  per-column stats, column order, bit-identical to running each
 *  config's predictor alone. */
std::vector<PredictorStats>
runBatchGroup(const BatchGroup& group,
              std::span<const TraceRecord> trace);

} // namespace vpred::harness

#endif // DFCM_HARNESS_BATCH_SWEEP_HH
