/**
 * @file
 * Load generator for the always-on sharded prediction service.
 *
 * Drives one million concurrent value streams (REPRO_SERVICE_SMOKE=1
 * selects a 10k-stream smoke run for CI) through a PredictionService
 * for 4 rounds. Each producer thread registers with the service and
 * pushes into its private SPSC rings; ring-full backpressure (not a
 * flow-control window) bounds in-flight memory, and producers account
 * their blocked time explicitly — each record's tick is re-stamped on
 * retry, so the ingest-to-predict histogram measures the fabric and
 * the producer_blocked histogram measures the waits, instead of one
 * number folding both. Every stream follows a per-stream stride
 * sequence derived from its id, so the DFCM kernels converge to a
 * high hit rate once warm — and the stream population is far larger
 * than the initial kernel bank (2^l1_bits entries per shard), so the
 * banks double several times during the first round.
 *
 * REPRO_SERVICE_SCALING=1 appends the thread-scaling sweep:
 * {1,2,4 producer threads} x {shard counts} points at one million
 * streams each, emitted as the "scaling" table (one row per point).
 * Under REPRO_SERVICE_SMOKE=1 the sweep reduces to 2 points of 5k
 * streams so CI stays bounded.
 *
 * Emits results/BENCH_service.json (schema_version 9): sustained
 * ingest records/sec as a gated "_records_per_sec" metric, p50/p99
 * ingest-to-predict latency (gated as latency quantiles), the col-0
 * hit rate, peak RSS, the "service"/"drain_stages"/"drain_batches"
 * sections (drain_stages: the shards' summed drain time split into
 * ring sweep, index/admit, kernel feed and accounting), an
 * "ingest_fabric" section (ring geometry, publish and full-ring
 * counters, adaptive-quota activity), a "producer_blocked" section
 * (the distinct blocked-time histogram), and the optional "scaling"
 * table.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cpu_features.hh"
#include "core/env_util.hh"
#include "harness/results_json.hh"
#include "service/prediction_service.hh"

namespace
{

using vpred::Value;
using vpred::service::IngestStats;
using vpred::service::LatencyHistogram;
using vpred::service::mixStreamId;
using vpred::service::PredictionService;
using vpred::service::Producer;
using vpred::service::ServiceConfig;
using vpred::service::ServiceStats;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
}

/** Resident-set size in MiB from /proc/self/status (0 if absent). */
double
rssMib()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmRSS:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(256, '\n');
    }
    return 0.0;
}

/** Round r of stream s: a per-stream base plus a per-stream stride —
 *  deterministic, predictable-once-warm, different per stream. */
Value
streamValue(std::uint64_t stream, std::uint64_t round)
{
    const std::uint64_t base = mixStreamId(stream);
    const std::uint64_t stride = (mixStreamId(stream ^ 0xabcdef) & 0xff) + 1;
    return (base + round * stride) & 0xffffffffull;
}

/** Everything one load run produces, for the JSON and the console. */
struct LoadResult
{
    double wall = 0.0;
    std::uint64_t records = 0;
    double rate = 0.0;
    double peak_rss = 0.0;
    std::uint64_t pumps = 0;
    ServiceStats stats;
    IngestStats ingest;
    LatencyHistogram latency;
    LatencyHistogram drain_batches;
    LatencyHistogram blocked;  //!< per-backpressure-episode wait
};

/**
 * Run @p n_producers registered producer threads pushing
 * @p n_streams x @p rounds records through @p service while this
 * thread pumps. Producers ride out ring-full by yielding, re-stamp
 * the record's tick on every retry, and account the episode in the
 * blocked histogram and the service's ingestStats().
 */
LoadResult
runLoad(PredictionService& service, unsigned n_producers,
        std::uint64_t n_streams, std::uint64_t rounds)
{
    std::vector<LatencyHistogram> blocked(n_producers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < n_producers; ++p) {
        producers.emplace_back([&service, &blocked, p, n_producers,
                                n_streams, rounds] {
            Producer prod = service.registerProducer();
            const std::uint64_t lo = n_streams * p / n_producers;
            const std::uint64_t hi = n_streams * (p + 1) / n_producers;
            // Re-read the clock every kStampStride records rather
            // than every record: the vDSO read (~20 ns) would
            // otherwise rival the push itself, and the ingest-side
            // latency histogram's 2-to-the-k buckets cannot resolve
            // a sub-microsecond stamp stride anyway. Backpressure
            // retries always re-stamp, so blocked time never leaks
            // into the ingest-to-predict latency.
            constexpr std::uint64_t kStampStride = 16;
            std::uint64_t tick = nowNs();
            std::uint64_t until_stamp = kStampStride;
            for (std::uint64_t r = 0; r < rounds; ++r) {
                for (std::uint64_t s = lo; s < hi; ++s) {
                    const Value v = streamValue(s, r);
                    if (--until_stamp == 0) {
                        tick = nowNs();
                        until_stamp = kStampStride;
                    }
                    if (!service.tryIngest(prod, s, v, tick)) {
                        const std::uint64_t b0 = nowNs();
                        do {
                            std::this_thread::yield();
                            tick = nowNs();
                        } while (!service.tryIngest(prod, s, v, tick));
                        until_stamp = kStampStride;
                        blocked[p].record(tick - b0);
                        service.noteBlocked(prod, tick - b0);
                    }
                }
            }
            service.unregisterProducer(prod);  // flushes partials
        });
    }

    LoadResult res;
    res.records = n_streams * rounds;
    std::uint64_t drained = 0;
    while (drained < res.records) {
        const std::size_t got = service.pump(nowNs());
        drained += got;
        ++res.pumps;
        if ((res.pumps & 0x3f) == 0)
            res.peak_rss = std::max(res.peak_rss, rssMib());
        if (got == 0)
            std::this_thread::yield();
    }
    for (std::thread& t : producers)
        t.join();
    res.wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    res.peak_rss = std::max(res.peak_rss, rssMib());
    res.rate = static_cast<double>(res.records) / res.wall;
    res.stats = service.stats();
    res.ingest = service.ingestStats();
    res.latency = service.latency();
    res.drain_batches = service.drainBatchRecords();
    for (const LatencyHistogram& h : blocked)
        res.blocked.merge(h);
    return res;
}

double
hitRate(const ServiceStats& s)
{
    return s.predictions == 0
            ? 0.0
            : static_cast<double>(s.correct_col0)
                    / static_cast<double>(s.predictions);
}

} // namespace

int
main()
{
    const bool smoke = vpred::envFlagOr("REPRO_SERVICE_SMOKE", false);
    const bool scaling =
            vpred::envFlagOr("REPRO_SERVICE_SCALING", false);
    const std::uint64_t n_streams = smoke ? 10'000 : 1'000'000;
    const std::uint64_t rounds = 4;

    ServiceConfig cfg = ServiceConfig::fromEnv();
    cfg.l1_bits = smoke ? 10 : 14;
    // Size the rings for this bench's firehose the way l1_bits is
    // sized for its stream population: deep enough that the drain
    // sweeps stay as large as the old unbounded queue's swap batches
    // (~32k records), so per-drain and per-segment fixed costs
    // amortize. 64Ki slots x 24 B = 1.5 MiB/ring.
    cfg.ring_capacity = 65536;
    // The drain SLO bounds ingest-to-predict p99, which at this
    // bench's ring depth is dominated by time *queued in the ring*: a
    // saturated 64Ki ring is itself ~20 ms of work per producer. The
    // library default (50 ms) is tuned for its default 4Ki rings;
    // scale it with the deeper rings so the adaptive quota reacts to
    // drains slowing down, not to the depth we deliberately
    // configured.
    cfg.drain_slo_ns = 250'000'000;
    std::optional<PredictionService> service;
    service.emplace(cfg);
    const unsigned n_shards = service->shards();
    const unsigned n_producers = std::min(4u, std::max(1u, n_shards));

    std::cout << "service_load: " << n_streams << " streams x "
              << rounds << " rounds over " << n_shards
              << " shards (initial bank "
              << (std::uint64_t{1} << cfg.l1_bits) << "/shard), "
              << n_producers << " producers, ring "
              << cfg.ring_capacity << " x publish "
              << cfg.publish_batch << "\n";

    // Best-of-N like the scaling sweep points and check.sh's perf
    // gate: the measured section is ~1 s of wall clock, squarely in
    // the regime where one scheduler burst on a shared box moves the
    // committed headline by more than a real regression would. The
    // kernel-state counters (hit rate, streams, feeds) are
    // deterministic across attempts; only wall time varies. Each
    // attempt gets a fresh service, and the previous one is torn
    // down first so peak RSS still measures a single instance.
    const unsigned attempts = smoke
            ? 1
            : static_cast<unsigned>(vpred::envUIntOr(
                      "REPRO_SERVICE_ATTEMPTS", 2, 1, 16));
    LoadResult r = runLoad(*service, n_producers, n_streams, rounds);
    for (unsigned a = 1; a < attempts; ++a) {
        service.reset();
        service.emplace(cfg);
        LoadResult attempt =
                runLoad(*service, n_producers, n_streams, rounds);
        if (attempt.rate > r.rate)
            r = std::move(attempt);
    }
    service.reset();

    const double hit_rate = hitRate(r.stats);
    const auto p50 = r.latency.quantileNs(0.50);
    const auto p99 = r.latency.quantileNs(0.99);
    const vpred::service::DrainStages& st = r.stats.stages;
    const auto ms = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e6;
    };
    const double mean_publish = r.ingest.publishes == 0
            ? 0.0
            : static_cast<double>(r.ingest.published_records)
                    / static_cast<double>(r.ingest.publishes);

    std::cout << "  ingested " << r.stats.ingested << " records in "
              << r.wall << " s  (" << r.rate / 1e6
              << " M records/s)\n"
              << "  hit rate (col 0): " << hit_rate << "\n"
              << "  latency p50 " << static_cast<double>(p50) / 1e3
              << " us, p99 " << static_cast<double>(p99) / 1e3
              << " us\n"
              << "  streams " << r.stats.resident_streams << ", "
              << r.stats.flushes
              << " kernel feeds ("
              << vpred::simdBackendName(vpred::bestSimdBackend())
              << ")\n  fabric: " << r.ingest.publishes
              << " publishes (mean batch " << mean_publish << "), "
              << r.ingest.full_events << " ring-full, blocked "
              << static_cast<double>(r.ingest.blocked_ns) / 1e6
              << " ms over " << r.ingest.blocked_events
              << " episodes, max backlog " << r.stats.max_backlog
              << ", quota +" << r.stats.quota_grows << "/-"
              << r.stats.quota_shrinks << "\n  drain stages (ms summed"
              << " over shards): sweep " << ms(st.sweep_ns)
              << ", index/admit " << ms(st.admit_ns) << ", kernel feed "
              << ms(st.feed_ns) << ", accounting " << ms(st.account_ns)
              << " of " << ms(st.wall_ns) << " drain wall\n  peak RSS "
              << r.peak_rss << " MiB\n";

    vpred::harness::ResultsJsonWriter json("service", 1.0, n_shards);
    json.setWallSeconds(r.wall);
    vpred::harness::SweepExecution exec;
    exec.simd_backend =
            vpred::simdBackendName(vpred::bestSimdBackend());
    exec.vector_width =
            vpred::simdVectorBits(vpred::bestSimdBackend());
    json.setExecution(exec);
    json.addMetric("service_ingest_records_per_sec", r.rate);
    json.addMetric("service_p50_ingest_to_predict_ns",
                   static_cast<double>(p50));
    json.addMetric("service_p99_ingest_to_predict_ns",
                   static_cast<double>(p99));
    json.addMetric("service_hit_rate_col0", hit_rate);
    json.addMetric("service_peak_rss_mib", r.peak_rss);
    json.addSection(
            "service",
            {{"shards", static_cast<double>(n_shards)},
             {"streams", static_cast<double>(n_streams)},
             {"rounds", static_cast<double>(rounds)},
             {"records", static_cast<double>(r.records)},
             {"resident_streams",
              static_cast<double>(r.stats.resident_streams)},
             {"pump_calls", static_cast<double>(r.pumps)}});
    // Where the shards' drain time went: four consecutive laps per
    // popped chunk, so the stages add up to the summed drain wall.
    json.addSection(
            "drain_stages",
            {{"sweep_s", static_cast<double>(st.sweep_ns) / 1e9},
             {"admit_s", static_cast<double>(st.admit_ns) / 1e9},
             {"feed_s", static_cast<double>(st.feed_ns) / 1e9},
             {"account_s", static_cast<double>(st.account_ns) / 1e9},
             {"drain_wall_s", static_cast<double>(st.wall_ns) / 1e9}});
    json.addSection(
            "drain_batches",
            {{"drains", static_cast<double>(r.drain_batches.count())},
             {"p50_records",
              static_cast<double>(r.drain_batches.quantileNs(0.50))},
             {"p90_records",
              static_cast<double>(r.drain_batches.quantileNs(0.90))},
             {"p99_records",
              static_cast<double>(r.drain_batches.quantileNs(0.99))}});
    json.addSection(
            "ingest_fabric",
            {{"producers", static_cast<double>(n_producers)},
             {"ring_capacity",
              static_cast<double>(cfg.ring_capacity)},
             {"publish_batch",
              static_cast<double>(cfg.publish_batch)},
             {"publishes", static_cast<double>(r.ingest.publishes)},
             {"published_records",
              static_cast<double>(r.ingest.published_records)},
             {"mean_publish_batch", mean_publish},
             {"full_events",
              static_cast<double>(r.ingest.full_events)},
             {"max_backlog",
              static_cast<double>(r.stats.max_backlog)},
             {"quota_grows",
              static_cast<double>(r.stats.quota_grows)},
             {"quota_shrinks",
              static_cast<double>(r.stats.quota_shrinks)}});
    // The blocked-time histogram is deliberately its own section —
    // producer waits must not hide inside the ingest-to-predict
    // quantiles above (ticks are re-stamped per retry), and must not
    // be perf-gated (backpressure volume is load-shape, not
    // regression).
    json.addSection(
            "producer_blocked",
            {{"episodes", static_cast<double>(r.blocked.count())},
             {"total_blocked_ns",
              static_cast<double>(r.ingest.blocked_ns)},
             {"p50_blocked_ns",
              static_cast<double>(r.blocked.quantileNs(0.50))},
             {"p99_blocked_ns",
              static_cast<double>(r.blocked.quantileNs(0.99))}});

    if (scaling) {
        // The thread-scaling sweep. Each point is a fresh service
        // (cold kernels) at a reduced stream population so the whole
        // grid stays tractable; the scaling claim reads the
        // fixed-shard producer column. Smoke keeps 2 points for CI.
        const std::uint64_t sweep_streams = smoke ? 5'000 : 1'000'000;
        const std::uint64_t sweep_rounds = smoke ? 2 : 4;
        // Best-of-N like tools/check.sh's perf gate: a sweep point
        // shorter than ~1 s is at the mercy of scheduler noise on a
        // shared box.
        const unsigned sweep_attempts = smoke ? 1 : 2;
        // The sweep fixes the *per-producer* resources — notably a
        // deliberately small ring — so the producer axis measures
        // what adding a producer buys the fabric: aggregate in-flight
        // capacity (producers x ring) and with it larger, better
        // amortized drains and fewer producer/consumer handoffs. At
        // the headline point's 64Ki rings a single producer already
        // saturates the drain path and the curve flattens into noise.
        const std::size_t sweep_ring_capacity = 128;
        std::vector<unsigned> producer_counts;
        std::vector<unsigned> shard_counts;
        if (smoke) {
            producer_counts = {1, 2};
            shard_counts = {1};
        } else {
            producer_counts = {1, 2, 4};
            shard_counts = {1, 2};
        }
        std::vector<std::vector<vpred::harness::JsonValue>> rows;
        for (const unsigned shards : shard_counts) {
            for (const unsigned producers : producer_counts) {
                ServiceConfig pc = cfg;
                pc.shards = shards;
                pc.ring_capacity = sweep_ring_capacity;
                LoadResult pr;
                for (unsigned a = 0; a < sweep_attempts; ++a) {
                    PredictionService psvc(pc);
                    LoadResult attempt = runLoad(psvc, producers,
                                                 sweep_streams,
                                                 sweep_rounds);
                    if (a == 0 || attempt.rate > pr.rate)
                        pr = std::move(attempt);
                }
                std::cout << "  scaling " << producers << "p x "
                          << shards << "s: " << pr.rate / 1e6
                          << " M records/s, p99 "
                          << static_cast<double>(
                                     pr.latency.quantileNs(0.99))
                                / 1e3
                          << " us, blocked "
                          << static_cast<double>(pr.ingest.blocked_ns)
                                / 1e6
                          << " ms\n";
                rows.push_back(
                        {static_cast<double>(producers),
                         static_cast<double>(shards),
                         static_cast<double>(pr.records), pr.rate,
                         static_cast<double>(
                                 pr.latency.quantileNs(0.50)),
                         static_cast<double>(
                                 pr.latency.quantileNs(0.99)),
                         static_cast<double>(pr.ingest.full_events),
                         static_cast<double>(pr.ingest.blocked_ns),
                         static_cast<double>(pr.stats.max_backlog),
                         static_cast<double>(pr.stats.quota_grows),
                         static_cast<double>(pr.stats.quota_shrinks),
                         hitRate(pr.stats)});
            }
        }
        json.addTable("scaling",
                      {"producers", "shards", "records",
                       "records_per_sec", "p50_ingest_to_predict_ns",
                       "p99_ingest_to_predict_ns", "full_events",
                       "blocked_ns", "max_backlog", "quota_grows",
                       "quota_shrinks", "hit_rate_col0"},
                      std::move(rows));
    }

    if (!json.write())
        return 1;
    return 0;
}
