/**
 * @file
 * One shard of the always-on prediction service. repro-lint: hot-path
 *
 * A shard exclusively owns the predictor state for its slice of the
 * stream-id space: a MultiGeomDfcmKernel whose 2^l1_bits level-1
 * entries hold the *resident* (hot) streams, a SlotMap assigning
 * dense kernel slots to stream ids, and a spill area holding the
 * relocatable level-1 state (hashed-history bank + last value) of
 * every stream that has been evicted to make room.
 *
 * Ingest is a lock-free fabric: each registered producer owns one
 * bounded SPSC ring into this shard (see spsc_ring.hh for the
 * memory-order argument). Producers tryEnqueue() into their ring —
 * ring-full is a retriable backpressure status, never a blocked
 * thread — and the shard's pump thread drain()s by sweeping all
 * rings into a staging vector, admitting streams (restoring spilled
 * state bit-identically when a cold stream returns), and feeding the
 * batch through the kernel's feedTrace() in arrival order.
 *
 * The sweep is quota-bounded and adaptive: drain() moves at most
 * sweep_quota_ records per call, doubling the quota while rings run
 * hot (quota exhausted or backlog left behind) and halving it when
 * the per-drain ingest-to-predict p99 exceeds the configured SLO.
 * Shrink wins over grow — when the SLO is busted the fabric sheds
 * work to the producers as explicit, accounted backpressure instead
 * of letting drain latency compound.
 *
 * The drain is segmented so eviction and batching compose: a slot
 * whose records are staged in the current segment is never an
 * eviction victim (its kernel state would be stale), and the segment
 * is flushed once the staged-stream count reaches half the slot
 * table — so under heavy stream churn the kernel still sees large
 * batches instead of one feed per eviction.
 *
 * Concurrency contract: tryEnqueue()/flushProducer() are safe from
 * the owning producer's thread concurrently with everything;
 * addProducerRing() publishes new rings to a running drain via an
 * acquire/release count. drain(), snapshots and state queries must
 * be externally serialized (PredictionService runs one drain per
 * shard at a time and snapshots only a quiescent service).
 *
 * Determinism contract: a stream's exported level-1 state depends
 * only on that stream's own value sequence — never on which shard it
 * lives in, which slot it occupies, which producer ring carried it,
 * or which other streams share the kernel — so it is invariant
 * across shard counts, ring capacities, producer counts and eviction
 * schedules.
 *
 * Level-2 semantics: the kernel sees every drained record in arrival
 * order, and a spilled stream's level-1 state comes back exactly, so
 * a shard's level-2 tables and per-column correct counts are those of
 * one plain DFCM fed the shard's records in arrival order, with one
 * private level-1 entry per stream. Level-2 hit rates therefore vary
 * with co-residency and interleaving, exactly like aliasing in the
 * paper's shared tables; tests/service_test.cc checks the counts
 * against that reference kernel.
 */

#ifndef DFCM_SERVICE_SHARD_HH
#define DFCM_SERVICE_SHARD_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/multi_geom.hh"
#include "core/types.hh"
#include "service/latency_histogram.hh"
#include "service/service_config.hh"
#include "service/slot_map.hh"
#include "service/spsc_ring.hh"

namespace vpred::service
{

/** The relocatable per-stream level-1 state: one hashed-history lane
 *  per kernel column (padded bank, exported verbatim) plus the DFCM
 *  last value. This is exactly what eviction spills and restore
 *  reinstalls. */
struct StreamState
{
    std::vector<std::uint32_t> hists;
    Value last = 0;

    bool operator==(const StreamState&) const = default;
};

struct ShardStats
{
    std::uint64_t ingested = 0;     //!< updates swept from the rings
    std::uint64_t predictions = 0;  //!< records fed to the kernel
    std::uint64_t evictions = 0;
    std::uint64_t restores = 0;     //!< spilled streams re-admitted
    std::uint64_t max_backlog = 0;  //!< deepest summed ring occupancy
                                    //!< seen at drain entry
    std::uint64_t flushes = 0;      //!< segments fed to the kernel
    std::uint64_t quota_grows = 0;   //!< sweep-quota doublings
    std::uint64_t quota_shrinks = 0; //!< sweep-quota halvings
    /** Correct predictions per kernel column. */
    std::vector<std::uint64_t> correct;
};

class Shard
{
  public:
    explicit Shard(const ServiceConfig& cfg);

    /**
     * Create the SPSC ring for producer @p producer (a dense index
     * assigned by PredictionService). Serialized by the service's
     * registration lock; safe against a concurrent drain() — the
     * ring becomes sweepable only after the release-store of the
     * ring count. Each producer index is registered exactly once.
     */
    void addProducerRing(std::size_t producer);

    /**
     * Producer entry point: append one update to @p producer's ring.
     * Owning producer thread only. Returns false — retriable
     * backpressure — when the ring is full; everything pending is
     * published before the rejection, so a retry after the next
     * drain can succeed.
     */
    [[nodiscard]] bool
    tryEnqueue(std::size_t producer, std::uint64_t stream, Value value,
               std::uint64_t tick_ns)
    {
        return rings_[producer]->tryPush({stream, value, tick_ns});
    }

    /** Publish @p producer's pending records (flush-on-ingest-idle).
     *  Owning producer thread only. */
    void
    flushProducer(std::size_t producer)
    {
        rings_[producer]->publish();
    }

    /**
     * Sweep up to the adaptive quota of published records from all
     * producer rings through the kernel; pump thread only. @p now_ns
     * is the drain timestamp used for the latency histogram
     * (publish-to-drain). Returns records fed.
     */
    std::size_t drain(std::uint64_t now_ns);

    /** Streams currently resident in the kernel. */
    std::size_t residentStreams() const { return map_.size(); }
    /** Streams whose state lives in the spill area only. */
    std::size_t spilledStreams() const;

    const ShardStats& stats() const { return stats_; }
    /** Aggregate producer-side ring counters (safe anytime). */
    RingCounters ringCounters() const;
    /** Current adaptive sweep quota (pump thread only). */
    std::size_t sweepQuota() const { return sweep_quota_; }
    const LatencyHistogram& latency() const { return latency_; }
    /** Per-drain batch-size distribution (records per drain() call
     *  that moved at least one record). */
    const LatencyHistogram& drainBatchRecords() const
    {
        return drain_batch_records_;
    }

    /**
     * The level-1 state of @p stream, resident or spilled; nullopt
     * for a stream this shard has never seen. Quiescent only.
     */
    std::optional<StreamState> streamState(std::uint64_t stream) const;

    /**
     * Append one fixed-size block per known stream to @p out for a
     * VPT2 snapshot: {pc=stream, value=last} followed by one
     * {pc=stream, value=hist lane} record per padded kernel column.
     * Quiescent only; resident streams first, then spilled ones.
     */
    void appendSnapshot(ValueTrace& out) const;

    /** Snapshot block length in records: 1 + paddedColumns(). */
    std::size_t blockRecords() const
    {
        return 1 + kernel_.paddedColumns();
    }

    /**
     * Install @p state for @p stream (the restore path). The stream
     * lands in the spill area and is admitted on its next update, so
     * restore never disturbs resident streams. Quiescent only.
     */
    void installStream(std::uint64_t stream, const StreamState& state);

  private:
    /** Feed every record in pending_ through admit into the staged
     *  batch, with the two-stage prefetch pipeline. */
    void admitRange(std::uint64_t now_ns,
                    LatencyHistogram& drain_latency);
    std::uint32_t admit(std::uint64_t stream);
    void flushBatch();
    std::uint32_t evictOne();
    std::uint32_t spillSlotFor(std::uint64_t stream);
    void spillTo(std::uint32_t spill_slot, std::uint32_t kernel_slot);

    MultiGeomDfcmKernel kernel_;
    std::size_t capacity_;

    // Resident-stream bookkeeping, indexed by kernel slot. The epoch
    // advances once per segment flush, so slot_epoch_[s] == epoch_
    // identifies exactly the slots with records staged in batch_ —
    // the slots eviction must not touch (epoch 0 is reserved for
    // never-touched slots; epoch_ starts at 1).
    SlotMap map_;
    std::vector<std::uint64_t> slot_stream_;
    std::vector<std::uint64_t> slot_epoch_;
    /** Resident slot -> spill slot (kNoSpill before first spill):
     *  lets eviction skip the spill-index probe at steady state. */
    std::vector<std::uint32_t> slot_spill_;
    std::size_t next_unused_ = 0;  //!< slots never yet allocated
    std::size_t hand_ = 0;         //!< eviction clock hand
    std::uint64_t epoch_ = 1;      //!< advances once per segment flush
    std::size_t staged_streams_ = 0;  //!< distinct slots in batch_
    std::size_t flush_threshold_;     //!< staged streams per segment

    // Spill area: flat banks indexed by spill slot; a stream keeps
    // its spill slot for life, so repeated evictions overwrite in
    // place and memory stays proportional to distinct streams seen.
    // The hot banks are arena-backed (TableBuffer): at service scale
    // they reach hundreds of MiB, and the mmap backing's lazy zero
    // pages are first touched by this shard's own drain thread —
    // NUMA-correct placement without explicit pinning.
    SlotMap spill_index_;
    TableBuffer<std::uint32_t> spill_hists_;
    TableBuffer<Value> spill_last_;
    std::vector<std::uint64_t> spill_streams_;  //!< spill slot -> id

    // Ingest fabric: one SPSC ring per registered producer, slots
    // pre-allocated to the lifetime cap so the array itself is never
    // resized. ring_count_ publishes construction to the drain
    // thread (release on add, acquire at sweep).
    std::vector<std::unique_ptr<SpscRing>> rings_;
    std::atomic<std::size_t> ring_count_{0};
    std::size_t ring_capacity_;
    std::size_t publish_batch_;

    // Adaptive drain state (pump thread only).
    std::size_t sweep_quota_;
    std::size_t sweep_quota_min_;
    std::size_t sweep_quota_max_;
    std::uint64_t drain_slo_ns_;

    std::vector<Update> pending_;  //!< drain-side sweep target
    std::vector<std::size_t> ring_take_; //!< per-ring drain snapshot
    ValueTrace batch_;             //!< records staged for feedTrace

    ShardStats stats_;
    LatencyHistogram latency_;
    LatencyHistogram drain_batch_records_;
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SHARD_HH
