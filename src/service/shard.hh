/**
 * @file
 * One shard of the always-on prediction service. repro-lint: hot-path
 *
 * A shard exclusively owns the predictor state for its slice of the
 * stream-id space: a MultiGeomDfcmKernel in which every stream the
 * shard has seen owns one permanent level-1 entry, and a SlotMap
 * numbering the streams densely in first-appearance order. The bank
 * starts at 2^l1_bits entries and doubles (growEntries()) whenever a
 * new stream finds it full, so no stream's state is ever moved, copied
 * out or evicted: the kernel bank is the one copy.
 *
 * Ingest is a lock-free fabric: each registered producer owns one
 * bounded SPSC ring into this shard (see spsc_ring.hh for the
 * memory-order argument). Producers tryEnqueue() into their ring —
 * ring-full is a retriable backpressure status, never a blocked
 * thread — and the shard's pump thread drain()s by popping the rings
 * in chunks, resolving each record's entry (one index probe per
 * record, prefetched ahead of the loop), and feeding every chunk
 * through the kernel's feedTrace() in arrival order.
 *
 * The sweep is quota-bounded and adaptive: drain() moves at most
 * sweep_quota_ records per call, doubling the quota while rings run
 * hot (quota exhausted or backlog left behind) and halving it when
 * the per-drain ingest-to-predict p99 exceeds the configured SLO.
 * Shrink wins over grow — when the SLO is busted the fabric sheds
 * work to the producers as explicit, accounted backpressure instead
 * of letting drain latency compound.
 *
 * Every drain is split into four stages timed per popped chunk with
 * the steady clock — ring sweep, index/admit, kernel feed and
 * accounting — which add up to the drain wall time (DrainStages).
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
 * lives in, which entry it occupies, which producer ring carried it,
 * or which other streams share the kernel — so it is invariant
 * across shard counts, ring capacities, producer counts and bank
 * growth.
 *
 * Level-2 semantics: the kernel sees every drained record in arrival
 * order with one private level-1 entry per stream, so a shard's
 * level-2 tables and per-column correct counts are those of one
 * plain DFCM fed the shard's records in arrival order. Level-2 hit
 * rates therefore vary with co-residency and interleaving, exactly
 * like aliasing in the paper's shared tables; tests/service_test.cc
 * checks the counts against that reference kernel.
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

/** The per-stream level-1 state: one hashed-history lane per kernel
 *  column (padded bank, exported verbatim) plus the DFCM last value.
 *  This is what a snapshot saves and a restore reinstalls. */
struct StreamState
{
    std::vector<std::uint32_t> hists;
    Value last = 0;

    bool operator==(const StreamState&) const = default;
};

/**
 * Where drain() time goes, in steady-clock nanoseconds. Each popped
 * chunk is timed as four consecutive laps, and the per-drain
 * bookkeeping is a final accounting lap, so the stages add up to
 * wall_ns.
 */
struct DrainStages
{
    std::uint64_t sweep_ns = 0;    //!< backlog snapshot and ring pops
    std::uint64_t admit_ns = 0;    //!< index probes and new-stream admits
    std::uint64_t feed_ns = 0;     //!< kernel feedTrace
    std::uint64_t account_ns = 0;  //!< latency, stats and quota updates
    std::uint64_t wall_ns = 0;     //!< drain() wall time

    DrainStages&
    operator+=(const DrainStages& o)
    {
        sweep_ns += o.sweep_ns;
        admit_ns += o.admit_ns;
        feed_ns += o.feed_ns;
        account_ns += o.account_ns;
        wall_ns += o.wall_ns;
        return *this;
    }
};

struct ShardStats
{
    std::uint64_t ingested = 0;     //!< updates swept from the rings
    std::uint64_t predictions = 0;  //!< records fed to the kernel
    std::uint64_t max_backlog = 0;  //!< deepest summed ring occupancy
                                    //!< seen at drain entry
    std::uint64_t flushes = 0;      //!< chunks fed to the kernel
    std::uint64_t quota_grows = 0;   //!< sweep-quota doublings
    std::uint64_t quota_shrinks = 0; //!< sweep-quota halvings
    DrainStages stages;
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

    /** Streams this shard has seen, one kernel entry each. */
    std::size_t residentStreams() const { return streams_.size(); }

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
     * The level-1 state of @p stream; nullopt for a stream this shard
     * has never seen. Quiescent only.
     */
    std::optional<StreamState> streamState(std::uint64_t stream) const;

    /**
     * Append one fixed-size block per known stream to @p out for a
     * VPT2 snapshot: {pc=stream, value=last} followed by one
     * {pc=stream, value=hist lane} record per padded kernel column.
     * Quiescent only; streams in entry (first-appearance) order.
     */
    void appendSnapshot(ValueTrace& out) const;

    /** Snapshot block length in records: 1 + paddedColumns(). */
    std::size_t blockRecords() const
    {
        return 1 + kernel_.paddedColumns();
    }

    /**
     * Install @p state for @p stream (the restore path), admitting
     * the stream first if this shard has never seen it. Quiescent
     * only.
     */
    void installStream(std::uint64_t stream, const StreamState& state);

  private:
    /** Resolve the entry of every record in pending_ into batch_,
     *  with the two-stage prefetch pipeline. */
    void admitRange();
    /** The entry of @p stream, admitting it (and growing the kernel
     *  bank when full) if this shard has never seen it.
     *  @throws std::length_error past 2^32 streams. */
    std::uint32_t admit(std::uint64_t stream);
    void feedBatch();

    MultiGeomDfcmKernel kernel_;
    /** Stream id -> kernel entry, and its inverse: entry e belongs to
     *  streams_[e]. Both only ever grow. */
    SlotMap index_;
    std::vector<std::uint64_t> streams_;

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

    std::vector<Update> pending_;  //!< one popped chunk
    std::vector<std::size_t> ring_take_; //!< per-ring drain snapshot
    ValueTrace batch_;             //!< pending_ resolved to entries

    ShardStats stats_;
    LatencyHistogram latency_;
    LatencyHistogram drain_batch_records_;
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SHARD_HH
