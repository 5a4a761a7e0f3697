// repro-lint: hot-path (the drain sweep and admit loop live here)

#include "service/shard.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace vpred::service
{

namespace
{

MultiGeomConfig
kernelConfig(const ServiceConfig& cfg)
{
    MultiGeomConfig kc;
    kc.l1_bits = cfg.l1_bits;
    kc.value_bits = cfg.value_bits;
    kc.stride_bits = cfg.stride_bits;
    kc.hash_shift = cfg.hash_shift;
    kc.l2_bits = cfg.l2_bits;
    return kc;
}

/** Records one ring pop moves into pending_: the staging buffers
 *  stay L2-resident however large the sweep quota grows, and each
 *  pop is fed to the kernel as one batch. */
constexpr std::size_t kChunk = 8192;

/** batch_ placeholder for a record whose entry the lookahead did not
 *  find (entries are 32-bit, so no entry collides with it). */
constexpr Pc kUnresolved = ~Pc{0};

std::uint64_t
clockNs()
{
    return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
}

/** Consecutive laps of one drain: each lap() charges the time since
 *  the previous lap to one stage, so the stages sum to the wall. */
class StageClock
{
  public:
    explicit StageClock(DrainStages& stages)
        : stages_(stages), start_(clockNs()), last_(start_)
    {
    }
    ~StageClock() { stages_.wall_ns += last_ - start_; }
    StageClock(const StageClock&) = delete;
    StageClock& operator=(const StageClock&) = delete;

    void
    lap(std::uint64_t DrainStages::*stage)
    {
        const std::uint64_t now = clockNs();
        stages_.*stage += now - last_;
        last_ = now;
    }

  private:
    DrainStages& stages_;
    std::uint64_t start_;
    std::uint64_t last_;
};

} // namespace

Shard::Shard(const ServiceConfig& cfg)
    : kernel_(kernelConfig(cfg)), index_(kernel_.l1Entries()),
      rings_(cfg.max_producers), ring_capacity_(cfg.ring_capacity),
      publish_batch_(cfg.publish_batch),
      sweep_quota_(cfg.sweep_quota_min),
      sweep_quota_min_(cfg.sweep_quota_min),
      sweep_quota_max_(cfg.sweep_quota_max),
      drain_slo_ns_(cfg.drain_slo_ns)
{
    stats_.correct.assign(kernel_.columns(), 0);
    pending_.reserve(std::min(kChunk, sweep_quota_min_));
    batch_.reserve(pending_.capacity());
    ring_take_.assign(cfg.max_producers, 0);
}

void
Shard::addProducerRing(std::size_t producer)
{
    assert(producer < rings_.size());
    assert(rings_[producer] == nullptr);
    assert(producer == ring_count_.load(std::memory_order_relaxed));
    rings_[producer] =
            std::make_unique<SpscRing>(ring_capacity_, publish_batch_);
    // The release store pairs with drain()'s acquire load: a sweep
    // that sees the new count sees a fully constructed ring.
    ring_count_.store(producer + 1, std::memory_order_release);
}

RingCounters
Shard::ringCounters() const
{
    RingCounters agg;
    const std::size_t n = ring_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
        const RingCounters c = rings_[i]->counters();
        agg.publishes += c.publishes;
        agg.published_records += c.published_records;
        agg.full_events += c.full_events;
    }
    return agg;
}

std::size_t
Shard::drain(std::uint64_t now_ns)
{
    const std::size_t n = ring_count_.load(std::memory_order_acquire);
    if (n == 0)
        return 0;
    StageClock clock(stats_.stages);

    // Snapshot the per-ring backlog once: this drain takes at most
    // what was already published at entry, so every record it admits
    // was stamped before now_ns and the latency histogram stays
    // truthful. Records published while we drain wait for the next
    // pump — that also bounds the drain against a producer that can
    // refill as fast as we sweep.
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ring_take_[i] = rings_[i]->occupancy();
        backlog += ring_take_[i];
    }
    stats_.max_backlog = std::max(stats_.max_backlog,
                                  std::uint64_t{backlog});

    // Sweep the snapshot, bounded by the adaptive quota. Records
    // move in kChunk pops, so ring slots are freed incrementally
    // instead of only after the whole sweep and a blocked producer
    // can resume mid-drain; each pop is resolved and fed whole.
    const std::size_t quota = sweep_quota_;
    LatencyHistogram drain_latency;
    std::size_t drained = 0;
    for (std::size_t i = 0; i < n && drained < quota; ++i) {
        std::size_t take = std::min(ring_take_[i], quota - drained);
        while (take > 0) {
            pending_.clear();
            const std::size_t got = rings_[i]->popInto(
                    pending_, std::min(kChunk, take));
            clock.lap(&DrainStages::sweep_ns);
            if (got == 0)
                break;  // defensive: the snapshot says it's there
            admitRange();
            clock.lap(&DrainStages::admit_ns);
            feedBatch();
            clock.lap(&DrainStages::feed_ns);
            for (const Update& u : pending_)
                drain_latency.record(now_ns > u.tick_ns
                                             ? now_ns - u.tick_ns
                                             : 0);
            drained += got;
            take -= got;
            clock.lap(&DrainStages::account_ns);
        }
    }
    if (drained == 0) {
        clock.lap(&DrainStages::sweep_ns);
        return 0;
    }
    stats_.ingested += drained;
    pending_.clear();
    drain_batch_records_.record(drained);
    latency_.merge(drain_latency);

    // Adaptive quota: shrink when this drain's p99 busts the SLO
    // (shed work to producers as accounted backpressure), else grow
    // while the rings run hot — quota exhausted, or backlog still
    // published behind us. Shrink deliberately wins over grow.
    bool hot = drained >= quota;
    for (std::size_t i = 0; !hot && i < n; ++i)
        hot = rings_[i]->occupancy() > 0;
    if (drain_latency.quantileNs(0.99) > drain_slo_ns_) {
        if (sweep_quota_ > sweep_quota_min_) {
            sweep_quota_ = std::max(sweep_quota_min_, sweep_quota_ / 2);
            ++stats_.quota_shrinks;
        }
    } else if (hot && sweep_quota_ < sweep_quota_max_) {
        sweep_quota_ = std::min(sweep_quota_max_, sweep_quota_ * 2);
        ++stats_.quota_grows;
    }
    clock.lap(&DrainStages::account_ns);
    return drained;
}

void
Shard::admitRange()
{
    // Two prefetch stages ahead of the resolve loop. At kAhead the
    // record's index bucket is pulled in (the index spans every
    // stream the shard has seen, so a cold probe is a DRAM round
    // trip). At kBank that bucket is cached, so the record's one
    // probe is cheap; it yields the entry, whose kernel bank the
    // feed will touch, so that line is requested too.
    constexpr std::size_t kAhead = 12;
    constexpr std::size_t kBank = 6;
    const std::size_t count = pending_.size();
    batch_.resize(count);
    const auto resolve = [&](std::size_t j) {
        const Update& u = pending_[j];
        Pc entry = kUnresolved;
        if (const auto e = index_.find(u.stream)) {
            entry = *e;
            kernel_.prefetchEntry(entry);
        }
        batch_[j] = {entry, u.value};
    };
    for (std::size_t j = 0; j < std::min(kAhead, count); ++j)
        index_.prefetch(pending_[j].stream);
    for (std::size_t j = 0; j < std::min(kBank, count); ++j)
        resolve(j);
    for (std::size_t i = 0; i < count; ++i) {
        if (i + kAhead < count)
            index_.prefetch(pending_[i + kAhead].stream);
        if (i + kBank < count)
            resolve(i + kBank);
        // Unresolved: a new stream, or one first admitted by a record
        // less than kBank ahead of this one.
        if (batch_[i].pc == kUnresolved)
            batch_[i].pc = admit(pending_[i].stream);
    }
}

std::uint32_t
Shard::admit(std::uint64_t stream)
{
    if (const auto entry = index_.find(stream))
        return *entry;
    if (streams_.size() > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("shard stream population exceeds"
                                " 2^32 kernel entries");
    const auto entry = static_cast<std::uint32_t>(streams_.size());
    // The bank's new upper half is power-on state, exactly what a
    // never-seen stream starts from.
    if (entry == kernel_.l1Entries())
        kernel_.growEntries();
    [[maybe_unused]] const bool inserted = index_.insert(stream, entry);
    assert(inserted);  // find() above proved the key absent
    streams_.push_back(stream);
    return entry;
}

void
Shard::feedBatch()
{
    const std::vector<PredictorStats> s = kernel_.feedTrace(batch_);
    for (std::size_t c = 0; c < s.size(); ++c)
        stats_.correct[c] += s[c].correct;
    stats_.predictions += batch_.size();
    stats_.flushes += 1;
}

std::optional<StreamState>
Shard::streamState(std::uint64_t stream) const
{
    const auto entry = index_.find(stream);
    if (!entry)
        return std::nullopt;
    const std::span<const std::uint32_t> bank = kernel_.entryHists(*entry);
    return StreamState{{bank.begin(), bank.end()},
                       kernel_.lastValue(*entry)};
}

void
Shard::appendSnapshot(ValueTrace& out) const
{
    const std::size_t pn = kernel_.paddedColumns();
    for (std::size_t entry = 0; entry < streams_.size(); ++entry) {
        const std::uint64_t stream = streams_[entry];
        const std::span<const std::uint32_t> bank =
                kernel_.entryHists(entry);
        out.push_back({stream, kernel_.lastValue(entry)});
        for (std::size_t c = 0; c < pn; ++c)
            out.push_back({stream, Value{bank[c]}});
    }
}

void
Shard::installStream(std::uint64_t stream, const StreamState& state)
{
    assert(state.hists.size() == kernel_.paddedColumns());
    const std::uint32_t entry = admit(stream);
    kernel_.setEntryHists(entry, state.hists);
    kernel_.setLastValue(entry, state.last);
}

} // namespace vpred::service
