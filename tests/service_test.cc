/**
 * @file
 * Tests for the always-on sharded prediction service: the
 * shard-count determinism contract on per-stream level-1 state, the
 * snapshot -> restore bit-identity guarantee, per-stream state
 * against a single-stream reference kernel across kernel bank
 * growth, the level-2 counts against one plain DFCM per shard fed in
 * arrival order, the drain stage split, the SlotMap and
 * LatencyHistogram building blocks, and a multi-producer ingest
 * race. Lives in its own binary labelled "concurrency" so the race
 * runs under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
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

/** A small geometry whose kernel banks must grow: 16 initial entries
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

/** True when every shard of @p service owns more of the streams
 *  [0, n_streams) than its initial 2^l1_bits bank holds, so every
 *  kernel bank has grown at least once. */
bool
everyBankGrew(const PredictionService& service, const ServiceConfig& cfg,
              std::uint64_t n_streams)
{
    std::vector<std::uint64_t> population(service.shards(), 0);
    for (std::uint64_t s = 0; s < n_streams; ++s)
        ++population[service.shardOf(s)];
    return service.stats().resident_streams == n_streams
            && std::ranges::all_of(population, [&](std::uint64_t p) {
                   return p > (std::uint64_t{1} << cfg.l1_bits);
               });
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

    // The population must outgrow the initial banks, or the test
    // proves nothing about growth.
    EXPECT_TRUE(everyBankGrew(one, tinyConfig(1), kStreams));
    EXPECT_TRUE(everyBankGrew(four, tinyConfig(4), kStreams));

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
    // values — i.e. co-residency, entry assignment and bank growth
    // are all invisible to level-1 state.
    const ServiceConfig cfg = tinyConfig(2);
    constexpr std::uint64_t kStreams = 100;
    constexpr std::uint64_t kSteps = 9;
    PredictionService service(cfg);
    feed(service, kStreams, kSteps);
    ASSERT_TRUE(everyBankGrew(service, cfg, kStreams));

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
 * The level-2 oracle: each shard, fed by one producer, must count
 * exactly what a plain MultiGeomDfcmKernel counts when fed that
 * shard's records in ingest order, with each stream on a private
 * level-1 entry (pc = the stream's dense first-appearance index in
 * its shard, l1_bits wide enough for every stream). Entry
 * assignment and bank growth must be invisible to level 2.
 *
 * The population grows over the run (stream ids are drawn from a
 * window that widens with time), so new streams keep arriving and —
 * when @p n_streams outgrows the initial banks — banks double inside
 * later drains, between records of streams that already carry state.
 * Returns how many drains straddled such a doubling.
 */
std::uint64_t
expectLevel2MatchesArrivalOrderReference(unsigned shards,
                                         std::uint64_t n_streams)
{
    const ServiceConfig cfg = tinyConfig(shards);
    const std::uint64_t initial = std::uint64_t{1} << cfg.l1_bits;
    PredictionService service(cfg);
    Producer prod = service.registerProducer();

    // A seeded arrival order (not round robin), fed in chunks so the
    // run spans many drains; each pump drains one chunk per shard.
    constexpr std::uint64_t kRecords = 6000;
    constexpr std::uint64_t kChunk = 500;
    std::vector<std::uint64_t> steps(n_streams, 0);
    std::vector<std::uint64_t> dense(n_streams, ~std::uint64_t{0});
    std::vector<std::uint64_t> population(shards, 0);
    std::vector<std::uint64_t> at_chunk_start(shards, 0);
    std::vector<ValueTrace> reference_feed(shards);
    std::uint64_t straddles = 0;
    std::uint64_t x = 0x5eed;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        x = mixStreamId(x);
        const std::uint64_t window =
                std::min(n_streams, 4 + i * 2 * n_streams / kRecords);
        const std::uint64_t stream = x % window;
        const unsigned shard = service.shardOf(stream);
        const Value value = valueOf(stream, steps[stream]++);
        if (dense[stream] == ~std::uint64_t{0})
            dense[stream] = population[shard]++;
        reference_feed[shard].push_back({Pc{dense[stream]}, value});
        push(service, prod, stream, value, i);
        if ((i + 1) % kChunk == 0) {
            service.flush(prod);
            while (service.pump(i) != 0) {
            }
            for (unsigned k = 0; k < shards; ++k) {
                // Crossing a power of two >= the initial bank from a
                // non-empty start: the drain grew the bank under
                // entries that already had state.
                for (std::uint64_t cap = initial;
                     cap < population[k]; cap *= 2)
                    straddles += at_chunk_start[k] != 0
                            && at_chunk_start[k] <= cap;
                at_chunk_start[k] = population[k];
            }
        }
    }
    service.flush(prod);
    while (service.pump(kRecords) != 0) {
    }
    service.unregisterProducer(prod);

    const ServiceStats st = service.stats();
    EXPECT_EQ(st.predictions, kRecords);
    EXPECT_EQ(st.resident_streams, n_streams);

    std::uint64_t want = 0;
    for (unsigned k = 0; k < shards; ++k) {
        MultiGeomConfig ref_cfg;
        ref_cfg.l1_bits = 1;
        while ((std::uint64_t{1} << ref_cfg.l1_bits) < population[k])
            ++ref_cfg.l1_bits;
        ref_cfg.value_bits = cfg.value_bits;
        ref_cfg.stride_bits = cfg.stride_bits;
        ref_cfg.hash_shift = cfg.hash_shift;
        ref_cfg.l2_bits = cfg.l2_bits;
        MultiGeomDfcmKernel ref(ref_cfg);
        want += ref.runTrace(reference_feed[k])[0].correct;
    }
    EXPECT_EQ(st.correct_col0, want) << shards << " shards";
    // Non-trivial: the streams are stride-predictable, so a correct
    // model hits on most records and a reordered one drifts visibly.
    EXPECT_GT(st.correct_col0, kRecords / 2) << shards << " shards";
    return straddles;
}

TEST(ServiceLevel2, MatchesArrivalOrderReferenceAllResident)
{
    // 12 streams fit one shard's 16 initial entries: no bank grows.
    for (const unsigned shards : {1u, 2u, 4u})
        EXPECT_EQ(expectLevel2MatchesArrivalOrderReference(shards, 12),
                  0u);
}

TEST(ServiceLevel2, MatchesArrivalOrderReferenceUnderChurn)
{
    // 120 streams against 16 initial entries per shard: every shard's
    // bank doubles at least once, and some doublings land inside a
    // drain between records of streams that already carry state.
    for (const unsigned shards : {1u, 2u, 4u})
        EXPECT_GT(expectLevel2MatchesArrivalOrderReference(shards, 120),
                  0u)
                << shards << " shards: no drain straddled a doubling";
}

TEST(ServiceSnapshot, EvictSnapshotRestoreIsBitIdentical)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/snapshot.vpt2";
    constexpr std::uint64_t kStreams = 200;
    constexpr std::uint64_t kSteps = 7;

    PredictionService a(tinyConfig(2));
    feed(a, kStreams, kSteps);
    ASSERT_TRUE(everyBankGrew(a, tinyConfig(2), kStreams));
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

TEST(ServiceIngest, ConstructorRejectsOutOfRangeConfig)
{
    // Release builds compile out SpscRing's asserts, so these used to
    // run: a 1000-slot ring overwrote records through mask 999, and a
    // zero quota floor made every drain return 0 forever.
    struct Case
    {
        const char* field;
        void (*set)(ServiceConfig&);
    };
    const Case bad[] = {
        {"ring_capacity", [](ServiceConfig& c) { c.ring_capacity = 1000; }},
        {"ring_capacity", [](ServiceConfig& c) { c.ring_capacity = 1; }},
        {"ring_capacity",
         [](ServiceConfig& c) { c.ring_capacity = std::size_t{1} << 21; }},
        {"publish_batch", [](ServiceConfig& c) { c.publish_batch = 0; }},
        {"publish_batch",
         [](ServiceConfig& c) { c.publish_batch = c.ring_capacity + 1; }},
        {"max_producers", [](ServiceConfig& c) { c.max_producers = 0; }},
        {"max_producers", [](ServiceConfig& c) { c.max_producers = 1025; }},
        {"sweep_quota_min", [](ServiceConfig& c) { c.sweep_quota_min = 0; }},
        {"sweep_quota_min",
         [](ServiceConfig& c) { c.sweep_quota_min = 63; }},
        {"sweep_quota_max",
         [](ServiceConfig& c) {
             c.sweep_quota_max = c.sweep_quota_min - 1;
         }},
        {"sweep_quota_max",
         [](ServiceConfig& c) {
             c.sweep_quota_max = (std::size_t{1} << 24) + 1;
         }},
        {"drain_slo_ns", [](ServiceConfig& c) { c.drain_slo_ns = 0; }},
    };
    for (const Case& k : bad) {
        ServiceConfig cfg = tinyConfig(1);
        k.set(cfg);
        try {
            PredictionService service(cfg);
            ADD_FAILURE() << k.field << " out of range was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind(
                              std::string("ServiceConfig::") + k.field, 0),
                      0u)
                    << e.what();
        }
    }

    // The bounds themselves are accepted.
    ServiceConfig edge = tinyConfig(1);
    edge.ring_capacity = 2;
    edge.publish_batch = 2;
    edge.max_producers = 1024;
    edge.sweep_quota_min = 64;
    edge.sweep_quota_max = 64;
    edge.drain_slo_ns = 1;
    EXPECT_NO_THROW(PredictionService{edge});
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

TEST(ServiceStages, DrainStagesAddUpToDrainWall)
{
    // Growth-heavy run over two shards: the four stages are timed as
    // consecutive laps per popped chunk, so they must account for the
    // drain wall time (within 5%), and each working stage must see
    // time.
    PredictionService service(tinyConfig(2));
    feed(service, 3000, 6);
    const DrainStages st = service.stats().stages;
    const std::uint64_t sum =
            st.sweep_ns + st.admit_ns + st.feed_ns + st.account_ns;
    ASSERT_GT(st.wall_ns, 0u);
    EXPECT_GT(st.admit_ns, 0u);
    EXPECT_GT(st.feed_ns, 0u);
    EXPECT_GT(st.account_ns, 0u);
    EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(st.wall_ns),
                0.05 * static_cast<double>(st.wall_ns));
}

TEST(SlotMap, MatchesReferenceMapUnderChurn)
{
    // Inserts (and re-inserts of present keys, which must be refused)
    // drive the table through many doublings from a tiny start; every
    // key stays findable with its first slot.
    SlotMap map(4);
    std::map<std::uint64_t, std::uint32_t> ref;
    std::uint64_t x = 42;
    for (int i = 0; i < 20000; ++i) {
        x = mixStreamId(x);
        const std::uint64_t key = x % 9973;
        const auto slot = static_cast<std::uint32_t>(x >> 40);
        EXPECT_EQ(map.insert(key, slot), ref.emplace(key, slot).second)
                << "key " << key;
        if (i % 97 == 0) {
            for (const auto& [k, v] : ref)
                ASSERT_EQ(map.find(k), std::optional(v)) << "key " << k;
            ASSERT_EQ(map.size(), ref.size());
            ASSERT_FALSE(map.find(9973 + x % 1000).has_value());
        }
    }
    EXPECT_GT(ref.size(), 5000u);  // grew well past the start
}

TEST(SlotMap, ReportsDuplicateInsert)
{
    SlotMap map(16);
    EXPECT_TRUE(map.insert(5, 1));
    EXPECT_FALSE(map.insert(5, 2));  // duplicate: table unchanged
    EXPECT_EQ(map.find(5), std::optional<std::uint32_t>(1));
    EXPECT_FALSE(map.find(6).has_value());
    EXPECT_EQ(map.size(), 1u);
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
