/**
 * @file
 * Tests for the always-on sharded prediction service: the
 * shard-count determinism contract on per-stream level-1 state, the
 * eviction -> snapshot -> restore bit-identity guarantee, the
 * spill/restore path against a single-stream reference kernel, the
 * level-2 counts against one plain DFCM fed in arrival order, the
 * SlotMap and LatencyHistogram building blocks, and a
 * multi-producer ingest race. Lives in its own binary labelled
 * "concurrency" so the race runs under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/trace_io.hh"
#include "service/latency_histogram.hh"
#include "service/prediction_service.hh"
#include "service/slot_map.hh"

namespace vpred::service
{
namespace
{

namespace fs = std::filesystem;

/** A small geometry with heavy eviction churn: 16 resident streams
 *  per shard against hundreds of live streams. */
ServiceConfig
tinyConfig(unsigned shards)
{
    ServiceConfig cfg;
    cfg.shards = shards;
    cfg.l1_bits = 4;
    cfg.l2_bits = {6, 10};
    return cfg;
}

/** Deterministic per-stream value sequence (stride + wobble). */
Value
valueOf(std::uint64_t stream, std::uint64_t step)
{
    const std::uint64_t stride = (mixStreamId(stream) & 0x3f) + 1;
    return (stream * 7 + step * stride + (step >> 3)) & 0xffffffffull;
}

/** Push one update through @p prod, relieving ring backpressure by
 *  pumping (single-threaded tests have no drain thread, so a full
 *  ring would otherwise never empty). */
void
push(PredictionService& service, const Producer& prod,
     std::uint64_t stream, Value value, std::uint64_t tick)
{
    while (!service.tryIngest(prod, stream, value, tick))
        service.pump(tick + 1);
}

/** Feed @p steps rounds of @p n_streams through @p service, flushing
 *  and pumping every round (single producer, so per-stream order is
 *  global order). */
void
feed(PredictionService& service, std::uint64_t n_streams,
     std::uint64_t steps)
{
    Producer prod = service.registerProducer();
    for (std::uint64_t step = 0; step < steps; ++step) {
        for (std::uint64_t s = 0; s < n_streams; ++s)
            push(service, prod, s, valueOf(s, step), step);
        service.flush(prod);
        while (service.pump(step + 1) != 0) {
        }
    }
    service.unregisterProducer(prod);
}

class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        dir_ = fs::temp_directory_path() /
               ("vpred_service_test_" + std::to_string(::getpid())
                + "_" + std::to_string(counter++));
        fs::create_directories(dir_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string str() const { return dir_.string(); }

  private:
    fs::path dir_;
};

TEST(ServiceDeterminism, StreamStateInvariantAcrossShardCounts)
{
    // The determinism contract: a stream's exported level-1 state
    // depends only on its own value sequence, so any shard count
    // produces identical per-stream state for the same ingest order.
    constexpr std::uint64_t kStreams = 300;
    constexpr std::uint64_t kSteps = 12;

    PredictionService one(tinyConfig(1));
    PredictionService four(tinyConfig(4));
    feed(one, kStreams, kSteps);
    feed(four, kStreams, kSteps);

    // The churn must actually exercise eviction and restore, or the
    // test proves nothing.
    EXPECT_GT(one.stats().evictions, 0u);
    EXPECT_GT(one.stats().restores, 0u);

    for (std::uint64_t s = 0; s < kStreams; ++s) {
        const auto a = one.streamState(s);
        const auto b = four.streamState(s);
        ASSERT_TRUE(a.has_value()) << "stream " << s;
        ASSERT_TRUE(b.has_value()) << "stream " << s;
        EXPECT_EQ(*a, *b) << "stream " << s;
    }
}

TEST(ServiceDeterminism, SpilledStateMatchesSingleStreamReference)
{
    // Stronger than cross-shard equality: each stream's state must
    // equal a dedicated one-entry kernel fed only that stream's
    // values — i.e. co-residency, slot assignment, eviction and
    // restore are all invisible to level-1 state.
    const ServiceConfig cfg = tinyConfig(2);
    constexpr std::uint64_t kStreams = 100;
    constexpr std::uint64_t kSteps = 9;
    PredictionService service(cfg);
    feed(service, kStreams, kSteps);
    ASSERT_GT(service.stats().evictions, 0u);

    MultiGeomConfig ref_cfg;
    ref_cfg.l1_bits = cfg.l1_bits;
    ref_cfg.l2_bits = cfg.l2_bits;
    for (std::uint64_t s = 0; s < kStreams; ++s) {
        MultiGeomDfcmKernel ref(ref_cfg);
        ValueTrace own;
        for (std::uint64_t step = 0; step < kSteps; ++step)
            own.push_back({Pc{0}, valueOf(s, step)});
        ref.runTrace(own);

        const auto got = service.streamState(s);
        ASSERT_TRUE(got.has_value()) << "stream " << s;
        EXPECT_TRUE(std::ranges::equal(got->hists, ref.entryHists(0)))
                << "stream " << s;
        EXPECT_EQ(got->last, ref.lastValue(0)) << "stream " << s;
    }
}

/**
 * The level-2 oracle: one shard fed by one producer must count
 * exactly what a plain MultiGeomDfcmKernel counts when fed the same
 * records in ingest order, with each stream on a private level-1
 * entry (pc = the stream's dense first-appearance index, l1_bits wide
 * enough for every stream). Residency, eviction, spill and restore
 * must all be invisible to level 2.
 */
void
expectLevel2MatchesArrivalOrderReference(std::uint64_t n_streams,
                                         bool expect_churn)
{
    const ServiceConfig cfg = tinyConfig(1);
    PredictionService service(cfg);
    Producer prod = service.registerProducer();

    // A seeded arrival order (not round robin), fed in chunks so the
    // run spans many drains and segment flushes.
    constexpr std::uint64_t kRecords = 6000;
    constexpr std::uint64_t kChunk = 500;
    std::vector<std::uint64_t> steps(n_streams, 0);
    std::vector<std::uint64_t> dense(n_streams, ~std::uint64_t{0});
    std::uint64_t next_dense = 0;
    ValueTrace reference_feed;
    std::uint64_t x = 0x5eed;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        x = mixStreamId(x);
        const std::uint64_t stream = x % n_streams;
        const Value value = valueOf(stream, steps[stream]++);
        if (dense[stream] == ~std::uint64_t{0})
            dense[stream] = next_dense++;
        reference_feed.push_back({Pc{dense[stream]}, value});
        push(service, prod, stream, value, i);
        if ((i + 1) % kChunk == 0) {
            service.flush(prod);
            while (service.pump(i) != 0) {
            }
        }
    }
    service.flush(prod);
    while (service.pump(kRecords) != 0) {
    }
    service.unregisterProducer(prod);

    const ServiceStats st = service.stats();
    ASSERT_EQ(st.predictions, kRecords);
    if (expect_churn) {
        EXPECT_GT(st.evictions, 0u);
        EXPECT_GT(st.restores, 0u);
    } else {
        EXPECT_EQ(st.evictions, 0u);
    }

    MultiGeomConfig ref_cfg;
    ref_cfg.l1_bits = 1;
    while ((std::uint64_t{1} << ref_cfg.l1_bits) < next_dense)
        ++ref_cfg.l1_bits;
    ref_cfg.value_bits = cfg.value_bits;
    ref_cfg.stride_bits = cfg.stride_bits;
    ref_cfg.hash_shift = cfg.hash_shift;
    ref_cfg.l2_bits = cfg.l2_bits;
    MultiGeomDfcmKernel ref(ref_cfg);
    const std::vector<PredictorStats> want = ref.runTrace(reference_feed);
    EXPECT_EQ(st.correct_col0, want[0].correct);
    // Non-trivial: the streams are stride-predictable, so a correct
    // model hits on most records and a reordered one drifts visibly.
    EXPECT_GT(st.correct_col0, kRecords / 2);
}

TEST(ServiceLevel2, MatchesArrivalOrderReferenceAllResident)
{
    // 12 streams fit the 16 resident slots: no eviction at all.
    expectLevel2MatchesArrivalOrderReference(12, false);
}

TEST(ServiceLevel2, MatchesArrivalOrderReferenceUnderChurn)
{
    // 60 streams against 16 resident slots: evictions and restores
    // on a large share of the records.
    expectLevel2MatchesArrivalOrderReference(60, true);
}

TEST(ServiceSnapshot, EvictSnapshotRestoreIsBitIdentical)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/snapshot.vpt2";
    constexpr std::uint64_t kStreams = 200;
    constexpr std::uint64_t kSteps = 7;

    PredictionService a(tinyConfig(2));
    feed(a, kStreams, kSteps);
    ASSERT_GT(a.stats().evictions, 0u);
    a.snapshotTo(path);

    PredictionService b(tinyConfig(2));
    b.restoreFrom(path);
    for (std::uint64_t s = 0; s < kStreams; ++s) {
        const auto orig = a.streamState(s);
        const auto restored = b.streamState(s);
        ASSERT_TRUE(orig.has_value()) << "stream " << s;
        ASSERT_TRUE(restored.has_value()) << "stream " << s;
        EXPECT_EQ(*orig, *restored) << "stream " << s;
    }

    // The restored service must *continue* identically at level 1:
    // feed both the same tail and re-compare.
    Producer pa = a.registerProducer();
    Producer pb = b.registerProducer();
    for (std::uint64_t step = kSteps; step < kSteps + 4; ++step) {
        for (std::uint64_t s = 0; s < kStreams; ++s) {
            push(a, pa, s, valueOf(s, step), step);
            push(b, pb, s, valueOf(s, step), step);
        }
        a.flush(pa);
        b.flush(pb);
        a.pump(step);
        b.pump(step);
    }
    a.unregisterProducer(pa);
    b.unregisterProducer(pb);
    for (std::uint64_t s = 0; s < kStreams; ++s)
        EXPECT_EQ(*a.streamState(s), *b.streamState(s))
                << "stream " << s;
}

TEST(ServiceSnapshot, RestoreIntoDifferentShardCountPreservesState)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/snapshot.vpt2";
    PredictionService a(tinyConfig(3));
    feed(a, 150, 6);
    a.snapshotTo(path);

    PredictionService b(tinyConfig(1));
    b.restoreFrom(path);
    for (std::uint64_t s = 0; s < 150; ++s)
        EXPECT_EQ(*a.streamState(s), *b.streamState(s))
                << "stream " << s;
}

TEST(ServiceSnapshot, RejectsMismatchedGeometry)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/snapshot.vpt2";
    PredictionService a(tinyConfig(1));
    feed(a, 40, 3);
    a.snapshotTo(path);

    ServiceConfig other = tinyConfig(1);
    other.l2_bits = {6, 10, 14};  // different column count
    PredictionService b(other);
    EXPECT_THROW(b.restoreFrom(path), TraceIoError);
}

TEST(ServiceSnapshot, RejectsCorruptSnapshot)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/snapshot.vpt2";
    PredictionService a(tinyConfig(1));
    feed(a, 40, 3);
    a.snapshotTo(path);

    fs::resize_file(path, fs::file_size(path) - 13);
    PredictionService b(tinyConfig(1));
    EXPECT_THROW(b.restoreFrom(path), TraceIoError);
}

TEST(ServiceIngest, ConcurrentProducersLoseNothing)
{
    // Multi-producer ingest racing a pumping consumer; run under
    // TSan via the "concurrency" CTest label. Each thread registers
    // its own producer (registration itself races ingest and pump),
    // rides out backpressure with a yield loop, and unregisters —
    // which flushes its partial batches — before the final pump.
    // Totals must balance.
    ServiceConfig cfg = tinyConfig(2);
    cfg.l1_bits = 6;
    cfg.ring_capacity = 256;  // small enough to exercise ring-full
    PredictionService service(cfg);

    constexpr unsigned kProducers = 4;
    constexpr std::uint64_t kPerProducer = 5000;
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&service, p] {
            Producer prod = service.registerProducer();
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                const std::uint64_t stream =
                        p * kPerProducer + i % 97;
                while (!service.tryIngest(prod, stream,
                                          valueOf(stream, i), i)) {
                    service.noteBlocked(prod, 1);
                    std::this_thread::yield();
                }
            }
            service.unregisterProducer(prod);
        });
    }
    std::uint64_t drained = 0;
    while (drained < kProducers * kPerProducer) {
        const std::size_t got = service.pump(1);
        drained += got;
        if (got == 0)
            std::this_thread::yield();
    }
    for (std::thread& t : producers)
        t.join();
    drained += service.pump(1);

    EXPECT_EQ(drained, kProducers * kPerProducer);
    EXPECT_EQ(service.stats().ingested, kProducers * kPerProducer);
    EXPECT_EQ(service.stats().predictions, kProducers * kPerProducer);
    const IngestStats ing = service.ingestStats();
    EXPECT_EQ(ing.producers_registered, kProducers);
    EXPECT_EQ(ing.producers_active, 0u);
    EXPECT_EQ(ing.published_records, kProducers * kPerProducer);
    EXPECT_EQ(ing.blocked_events, ing.blocked_ns);
}

TEST(ServiceIngest, DeterminismAcrossRingCapacityAndProducerCount)
{
    // The same contract StreamStateInvariantAcrossShardCounts pins
    // for shards, extended to the ingest fabric: per-stream level-1
    // state must not depend on ring capacity, publish batch, or how
    // streams are partitioned across producers — only on each
    // stream's own value sequence. The tiny ring forces the
    // backpressure path (push() pumps to relieve it), and three
    // producers change the cross-stream drain interleaving without
    // touching any single stream's order.
    constexpr std::uint64_t kStreams = 120;
    constexpr std::uint64_t kSteps = 10;

    PredictionService ref(tinyConfig(2));
    feed(ref, kStreams, kSteps);

    ServiceConfig cfg = tinyConfig(2);
    cfg.ring_capacity = 8;
    cfg.publish_batch = 8;
    PredictionService svc(cfg);
    std::vector<Producer> prods;
    for (int p = 0; p < 3; ++p)
        prods.push_back(svc.registerProducer());
    for (std::uint64_t step = 0; step < kSteps; ++step) {
        for (std::uint64_t s = 0; s < kStreams; ++s)
            push(svc, prods[s % 3], s, valueOf(s, step), step);
        for (const Producer& p : prods)
            svc.flush(p);
        while (svc.pump(step + 1) != 0) {
        }
    }
    EXPECT_GT(svc.ingestStats().full_events, 0u)
            << "ring too big to exercise backpressure";

    for (std::uint64_t s = 0; s < kStreams; ++s) {
        const auto a = ref.streamState(s);
        const auto b = svc.streamState(s);
        ASSERT_TRUE(a.has_value()) << "stream " << s;
        ASSERT_TRUE(b.has_value()) << "stream " << s;
        EXPECT_EQ(*a, *b) << "stream " << s;
    }
    for (Producer& p : prods)
        svc.unregisterProducer(p);
}

TEST(ServiceIngest, FlushOnIdlePublishesPartialBatches)
{
    // With publish_batch > records pushed, nothing is visible to
    // pump until flush() — and after flush everything is.
    ServiceConfig cfg = tinyConfig(1);
    cfg.publish_batch = 64;
    PredictionService service(cfg);
    Producer prod = service.registerProducer();
    for (std::uint64_t s = 0; s < 10; ++s)
        ASSERT_TRUE(service.tryIngest(prod, s, valueOf(s, 0), 0));
    EXPECT_EQ(service.pump(1), 0u) << "unpublished records drained";
    service.flush(prod);
    EXPECT_EQ(service.pump(1), 10u);
    service.unregisterProducer(prod);
}

TEST(ServiceIngest, UnregisterPublishesAndCapIsEnforced)
{
    ServiceConfig cfg = tinyConfig(1);
    cfg.publish_batch = 64;
    cfg.max_producers = 2;
    PredictionService service(cfg);

    Producer a = service.registerProducer();
    ASSERT_TRUE(service.tryIngest(a, 7, valueOf(7, 0), 0));
    service.unregisterProducer(a);  // flushes the partial batch
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(service.pump(1), 1u);

    // Slots are never reused: the second registration takes the
    // second (and last) slot, the third must fail loudly.
    Producer b = service.registerProducer();
    EXPECT_TRUE(b.valid());
    EXPECT_THROW(service.registerProducer(), std::length_error);
    service.unregisterProducer(b);
}

TEST(ServiceIngest, AdaptiveQuotaGrowsHotAndShrinksPastSlo)
{
    // Grow: keep the rings hotter than the quota floor with ticks
    // equal to now (measured latency 0 stays inside the SLO), so
    // the quota must double away from the floor. Shrink: then stamp
    // ticks 1ms in the past so the per-drain p99 busts the 1us SLO
    // and the quota must halve — shrink wins over hot.
    ServiceConfig cfg = tinyConfig(1);
    cfg.l1_bits = 8;
    cfg.ring_capacity = 1024;
    cfg.sweep_quota_min = 64;
    cfg.sweep_quota_max = 512;
    cfg.drain_slo_ns = 1000;
    PredictionService service(cfg);
    Producer prod = service.registerProducer();

    for (std::uint64_t round = 0; round < 4; ++round) {
        for (std::uint64_t i = 0; i < 256; ++i)
            push(service, prod, i % 50, valueOf(i % 50, round), 1);
        service.flush(prod);
        service.pump(1);  // quota-bounded drain leaves backlog → hot
    }
    while (service.pump(1) != 0) {
    }
    EXPECT_GT(service.stats().quota_grows, 0u);
    EXPECT_GT(service.stats().max_backlog, 64u);

    for (std::uint64_t round = 0; round < 4; ++round) {
        for (std::uint64_t i = 0; i < 200; ++i)
            push(service, prod, i % 50, valueOf(i % 50, round), 0);
        service.flush(prod);
        service.pump(1'000'000);  // every record looks 1ms late
    }
    while (service.pump(1'000'000) != 0) {
    }
    EXPECT_GT(service.stats().quota_shrinks, 0u);
    service.unregisterProducer(prod);
}

TEST(SlotMap, MatchesReferenceMapUnderChurn)
{
    SlotMap map(256);
    std::map<std::uint64_t, std::uint32_t> ref;
    std::uint64_t x = 42;
    for (int i = 0; i < 20000; ++i) {
        x = mixStreamId(x);
        const std::uint64_t key = x % 997;
        if ((x >> 32) % 3 == 0 && ref.count(key)) {
            EXPECT_TRUE(map.erase(key));
            ref.erase(key);
        } else if (!ref.count(key)) {
            const auto slot = static_cast<std::uint32_t>(x & 0xffff);
            EXPECT_TRUE(map.insert(key, slot));
            ref[key] = slot;
        }
        if (i % 97 == 0) {
            for (const auto& [k, v] : ref)
                ASSERT_EQ(map.find(k), std::optional(v)) << "key " << k;
            ASSERT_EQ(map.size(), ref.size());
        }
    }
}

TEST(SlotMap, ReportsDuplicateInsertAndAbsentErase)
{
    SlotMap map(16);
    EXPECT_TRUE(map.insert(5, 1));
    EXPECT_FALSE(map.insert(5, 2));  // duplicate: table unchanged
    EXPECT_EQ(map.find(5), std::optional<std::uint32_t>(1));
    EXPECT_EQ(map.size(), 1u);
    EXPECT_FALSE(map.erase(6));  // absent key reports, never probes
    EXPECT_TRUE(map.erase(5));   // forever through empty buckets
    EXPECT_FALSE(map.erase(5));
    EXPECT_EQ(map.size(), 0u);
}

TEST(SlotMap, GrowsPastInitialCapacity)
{
    SlotMap map(4);
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_TRUE(map.insert(k, static_cast<std::uint32_t>(k * 3)));
    EXPECT_EQ(map.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_EQ(map.find(k),
                  std::optional(static_cast<std::uint32_t>(k * 3)));
    EXPECT_FALSE(map.find(1000).has_value());
}

TEST(LatencyHistogram, QuantilesBracketTheSamples)
{
    LatencyHistogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.record(1000);  // all samples in [512, 2048)
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_GE(h.quantileNs(0.5), 512u);
    EXPECT_LE(h.quantileNs(0.5), 2048u);
    EXPECT_GE(h.quantileNs(0.99), h.quantileNs(0.5));

    LatencyHistogram empty;
    EXPECT_EQ(empty.quantileNs(0.5), 0u);

    LatencyHistogram merged;
    merged.merge(h);
    merged.merge(h);
    EXPECT_EQ(merged.count(), 2000u);
}

} // namespace
} // namespace vpred::service
