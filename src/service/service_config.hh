/**
 * @file
 * Configuration for the always-on prediction service.
 *
 * The one environment knob, REPRO_SERVICE_SHARDS, is parsed through
 * core/env_util.hh: unset or empty selects the default, a malformed
 * or out-of-range value is a loud exit(2) — never a silent fallback.
 */

#ifndef DFCM_SERVICE_SERVICE_CONFIG_HH
#define DFCM_SERVICE_SERVICE_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vpred::service
{

/**
 * Geometry and sizing of one PredictionService instance.
 *
 * The kernel geometry (l1_bits per shard, the l2_bits column,
 * value/stride widths, FS R-k shift) is the experiment under test;
 * it and the ingest-fabric and adaptive-drain sizing are set by the
 * program. Only the shard count comes from the environment.
 * PredictionService rejects fabric and drain fields outside the
 * bounds noted below with std::invalid_argument.
 */
struct ServiceConfig
{
    /** Shards (state-owning cores). 0 = one per hardware thread. */
    unsigned shards = 0;
    /** log2(initial level-1 entries per shard kernel). Every stream
     *  owns one entry; a shard doubles its bank whenever a new
     *  stream finds it full, so this sizes the start, not a cap. */
    unsigned l1_bits = 14;
    /** Level-2 sizes evaluated per stream (one kernel column each). */
    std::vector<unsigned> l2_bits = {12};
    unsigned value_bits = 32;
    unsigned stride_bits = 32;
    unsigned hash_shift = 5;

    // Lock-free ingest fabric (one SPSC ring per producer per shard).
    /** Slots per ring; a power of two in [2, 2^20]. */
    std::size_t ring_capacity = 4096;
    /** Records a producer accumulates per release-store publish,
     *  in [1, ring_capacity]; flush-on-idle covers the remainder. */
    std::size_t publish_batch = 32;
    /** Lifetime cap on registered producers, in [1, 1024] (ring
     *  slots are never reused, so this bounds fabric memory). */
    unsigned max_producers = 16;
    /** Adaptive sweep quota bounds: drain() doubles its per-call
     *  record quota while rings run hot and halves it when the
     *  per-drain ingest-to-predict p99 exceeds the SLO;
     *  64 <= sweep_quota_min <= sweep_quota_max <= 2^24. */
    std::size_t sweep_quota_min = 4096;
    std::size_t sweep_quota_max = std::size_t{1} << 20;
    /** Per-drain p99 ingest-to-predict SLO driving quota shrink
     *  (at least 1). */
    std::uint64_t drain_slo_ns = 50'000'000;

    /**
     * Defaults with the shard count from REPRO_SERVICE_SHARDS
     * (0..256, 0 = hardware threads); a malformed or out-of-range
     * value is fatal (exit 2). Resolution of shards=0 happens in
     * PredictionService, so a config round-trips unchanged.
     */
    static ServiceConfig fromEnv();
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SERVICE_CONFIG_HH
