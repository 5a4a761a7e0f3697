/**
 * @file
 * The prediction-service workloads: one generator thread feeding a
 * 2-shard PredictionService while this thread pumps it.
 *
 * service_churn: about a million seeded stride streams fed round
 * robin, some 30x the resident capacity (2 x 2^14), so SlotMap
 * admit, eviction/spill and restore run on almost every record.
 *
 * service_hot: the streams are the (trace, static pc) pairs of the
 * eight paper traces, replayed round robin in a seeded interleaving;
 * the whole population stays resident, so kernel feed and the shared
 * level-2 table dominate, and the hit rate reflects the paper's value
 * patterns.
 *
 * Both feed one fixed record sequence, again and again:
 *  1. closed loop: ingest, flush and pump on this thread, first into
 *     a fresh service (hit_rate, the reference-kernel and snapshot
 *     checks), then timed passes on the warm service
 *     (predictions_per_s);
 *  2. snapshotTo every stream and restoreFrom into a fresh service
 *     (snapshot_s);
 *  3. open loop on a fixed ladder of offered rates, searched for the
 *     highest rate with p99 within the limit, no refusals and no
 *     growing backlog (max_rate_rps);
 *  4. open loop at a fixed reference rate until the requested seconds
 *     are used (p50_us, p99_us: medians over the repetitions).
 *
 * Open-loop latency is timed from each record's due time to the end
 * of the first pump that started after the generator published it.
 * The drain quota floor equals the ring capacity, so such a pump
 * always drains it; a record the generator had not yet published when
 * that pump started is credited to a later pump, so the figure errs
 * long, never short. A refused record misses the limit.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/multi_geom.hh"
#include "service/prediction_service.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using vpred::Value;
using vpred::service::PredictionService;
using vpred::service::Producer;
using vpred::service::ServiceConfig;
using vpred::service::ServiceStats;

namespace
{

constexpr std::uint64_t kChurnStreams = 1'000'000;
constexpr std::uint64_t kChurnRounds = 4;
constexpr std::uint64_t kHotRecords = 2'000'000;
constexpr double kHotScale = 0.25;

/** Records the generator sends between flushes, at most. */
constexpr std::uint64_t kBurst = 256;
/** Records per ingest/pump round of the closed loop. */
constexpr std::uint64_t kClosedChunk = 32768;
/** Timed closed-loop passes after the first: at least this many, and
 *  more until kClosedSeconds are used (exactly this many untraced and
 *  as many traced with tracing on). */
constexpr int kClosedPasses = 3;
constexpr double kClosedSeconds = 3.0;

/** p99 limit of max_rate_rps: the library's drain_slo_ns default. */
constexpr double kLimitNs = 50e6;
/** Offered-rate ladder: kLadderBase * 2^(k/4), k < kLadderSteps. */
constexpr double kLadderBase = 500'000.0;
constexpr int kLadderSteps = 29;
/** Reference-rate repetitions: at least this many untraced, exactly
 *  one traced. */
constexpr int kMinRefReps = 3;
/** Records the traced reference step offers. */
constexpr std::uint64_t kTracedRecords = 250'000;
/** Streams compared against the reference kernel and the snapshot. */
constexpr int kSampledStreams = 64;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

ServiceConfig
serviceConfig()
{
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.l1_bits = 14;
    cfg.l2_bits = {12};
    // A quarter million slots per shard rides out a quarter-second
    // host stall at the reference rates without refusing a record.
    cfg.ring_capacity = std::size_t{1} << 18;
    // Publishing exactly at the generator's flushes, and a quota that
    // always empties the producer's ring, make the completion of every
    // published record observable from outside the service.
    cfg.publish_batch = kBurst;
    cfg.sweep_quota_min = cfg.ring_capacity;
    return cfg;
}

/** The fixed record sequence a workload feeds. */
struct Sequence
{
    std::vector<std::uint64_t> stream;
    std::vector<Value> value;
    std::vector<std::uint64_t> sampled;  //!< stream ids to check

    std::size_t size() const { return stream.size(); }
};

Sequence
churnSequence(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> id(kChurnStreams);
    std::vector<Value> base(kChurnStreams), stride(kChurnStreams);
    for (std::uint64_t s = 0; s < kChurnStreams; ++s) {
        id[s] = rng.next();
        base[s] = rng.next() & 0xffffffffull;
        stride[s] = rng.below(4096) + 1;
    }
    std::vector<std::uint32_t> order(kChurnStreams);
    for (std::uint32_t s = 0; s < kChurnStreams; ++s)
        order[s] = s;
    rng.shuffle(order);

    Sequence seq;
    seq.stream.reserve(kChurnStreams * kChurnRounds);
    seq.value.reserve(kChurnStreams * kChurnRounds);
    for (std::uint64_t r = 0; r < kChurnRounds; ++r) {
        for (const std::uint32_t s : order) {
            seq.stream.push_back(id[s]);
            seq.value.push_back((base[s] + r * stride[s]) & 0xffffffffull);
        }
    }
    for (int k = 0; k < kSampledStreams; ++k)
        seq.sampled.push_back(id[rng.below(kChurnStreams)]);
    return seq;
}

Sequence
hotSequence(std::uint64_t seed, vpred::harness::TraceCache& cache)
{
    Rng rng(seed);
    const std::vector<std::string>& names =
            vpred::workloads::benchmarkNames();
    std::vector<std::span<const vpred::TraceRecord>> traces;
    std::vector<std::uint64_t> salt;
    for (const std::string& name : names) {
        traces.push_back(cache.getSpan(name));
        salt.push_back(rng.next());
    }
    std::vector<std::size_t> pos(names.size(), 0);
    std::vector<std::size_t> order(names.size());
    for (std::size_t w = 0; w < order.size(); ++w)
        order[w] = w;

    Sequence seq;
    seq.stream.reserve(kHotRecords);
    seq.value.reserve(kHotRecords);
    while (seq.size() < kHotRecords) {
        rng.shuffle(order);  // a seeded interleaving per round
        for (const std::size_t w : order) {
            const vpred::TraceRecord& rec = traces[w][pos[w]];
            pos[w] = (pos[w] + 1) % traces[w].size();
            seq.stream.push_back(
                    vpred::service::mixStreamId(salt[w] ^ rec.pc));
            seq.value.push_back(rec.value);
        }
    }
    for (int k = 0; k < kSampledStreams; ++k)
        seq.sampled.push_back(seq.stream[rng.below(seq.size())]);
    return seq;
}

/** Pump until a pump call finds nothing to drain. */
void
pumpDry(PredictionService& svc, SpanBuffer* spans, std::uint64_t request,
        std::uint32_t parent)
{
    for (;;) {
        const std::uint64_t t0 = nowNs();
        const std::size_t got = svc.pump(t0);
        if (got == 0)
            return;
        if (spans)
            spans->add("service.pump", request, parent, t0, nowNs());
    }
}

/** Feed @p seq once, closed loop; returns host seconds. */
double
closedLoopPass(PredictionService& svc, const Producer& prod,
               const Sequence& seq, SpanBuffer* spans,
               std::uint64_t request)
{
    const ScopedSpan pass(spans, "bench.closed_loop_pass", request, 0);
    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < seq.size(); i += kClosedChunk) {
        const std::size_t end = std::min(seq.size(), i + kClosedChunk);
        const std::uint64_t tick = nowNs();
        for (std::size_t j = i; j < end; ++j) {
            // The ring holds eight chunks, so this never refuses.
            while (!svc.tryIngest(prod, seq.stream[j], seq.value[j], tick))
                pumpDry(svc, spans, request, pass.id());
        }
        svc.flush(prod);
        if (spans)
            spans->add("service.try_ingest", request, pass.id(), tick,
                       nowNs());
        pumpDry(svc, spans, request, pass.id());
    }
    return secondsSince(t0);
}

/** One open-loop step: the whole sequence offered at one rate. */
struct Step
{
    double rate = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t refused = 0;
    std::uint64_t drained = 0;
    LatencyHistogram latency;
    LatencyHistogram lag;     //!< how late the generator sent
    double backlog_growth = 0.0;
    std::uint64_t max_backlog = 0;
    std::uint64_t pump_calls = 0;
    double pump_busy_s = 0.0;
    double ingest_busy_s = 0.0;

    double p50Us() const { return latency.percentileNs(50.0) * 1e-3; }
    double p99Us() const { return latency.percentileNs(99.0) * 1e-3; }

    bool
    meetsLimit(std::size_t ring_capacity) const
    {
        return refused == 0 && latency.percentileNs(99.0) <= kLimitNs
                && backlog_growth
                <= static_cast<double>(ring_capacity) / 8.0;
    }
};

/** Offer the first @p n records of @p seq at @p rate. */
Step
openLoopStep(PredictionService& svc, const Producer& prod,
             const Sequence& seq, std::uint64_t n, double rate,
             SpanBuffer* gen_spans, SpanBuffer* pump_spans,
             std::uint64_t request, std::uint32_t parent)
{
    std::vector<std::uint8_t> accepted(n, 0);
    std::atomic<std::uint64_t> published{0};
    // A short lead so the generator thread is running at time zero.
    const OpenLoopSchedule sched(rate, nowNs() + 2'000'000);

    Step st;
    st.rate = rate;
    st.attempted = n;
    std::thread generator([&] {
        std::uint64_t i = 0;
        while (i < n) {
            const std::uint64_t now = nowNs();
            const std::uint64_t due = std::min(sched.dueCount(now), n);
            if (due <= i) {
                cpuRelax();
                continue;
            }
            const std::uint64_t end = std::min(due, i + kBurst);
            for (std::uint64_t j = i; j < end; ++j) {
                const std::uint64_t due_ns = sched.dueNs(j);
                const bool ok = svc.tryIngest(prod, seq.stream[j],
                                              seq.value[j], due_ns);
                accepted[j] = ok ? 1 : 0;
                st.refused += ok ? 0 : 1;
                st.lag.record(now - due_ns);
            }
            svc.flush(prod);
            const std::uint64_t t1 = nowNs();
            st.ingest_busy_s += static_cast<double>(t1 - now) * 1e-9;
            if (gen_spans)
                gen_spans->add("service.try_ingest", request, parent, now,
                               t1);
            published.store(end, std::memory_order_release);
            i = end;
        }
    });

    // Backlog (published, not yet drained) at each pump start, to tell
    // a steady queue from a growing one.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> backlog;
    std::uint64_t done = 0;
    while (done < n) {
        const std::uint64_t p =
                published.load(std::memory_order_acquire);
        if (p == done) {
            cpuRelax();
            continue;
        }
        const std::uint64_t t0 = nowNs();
        const std::size_t got = svc.pump(t0);
        const std::uint64_t t1 = nowNs();
        backlog.emplace_back(t0, p - done);
        st.max_backlog = std::max(st.max_backlog, p - done);
        if (got > 0) {
            ++st.pump_calls;
            st.pump_busy_s += static_cast<double>(t1 - t0) * 1e-9;
            st.drained += got;
            if (pump_spans)
                pump_spans->add("service.pump", request, parent, t0, t1);
        }
        for (std::uint64_t i = done; i < p; ++i)
            if (accepted[i])
                st.latency.record(t1 - sched.dueNs(i));
        done = p;
    }
    generator.join();
    st.latency.addMissing(st.refused);

    // Growth: mean backlog over the last quarter of the offered
    // interval minus that over the first quarter.
    const std::uint64_t t_begin = sched.startNs();
    const std::uint64_t t_span = sched.dueNs(n - 1) - t_begin;
    double first = 0, last = 0;
    std::uint64_t nf = 0, nl = 0;
    for (const auto& [t, b] : backlog) {
        if (t < t_begin + t_span / 4) {
            first += static_cast<double>(b);
            ++nf;
        } else if (t >= t_begin + 3 * t_span / 4 && t <= t_begin + t_span) {
            last += static_cast<double>(b);
            ++nl;
        }
    }
    if (nf > 0 && nl > 0)
        st.backlog_growth = last / static_cast<double>(nl)
                - first / static_cast<double>(nf);
    return st;
}

std::string
fmt(double v, int precision = 4)
{
    std::ostringstream os;
    os.precision(precision);
    os << v;
    return os.str();
}

void
printStep(Run& run, const char* what, const Step& st)
{
    run.report.note(
            std::string(what) + " rate " + fmt(st.rate / 1e6) + "M/s: p50 "
            + fmt(st.p50Us()) + " us, p99 " + fmt(st.p99Us())
            + " us, refused " + std::to_string(st.refused) + ", backlog growth "
            + fmt(st.backlog_growth) + " rec (max " + std::to_string(st.max_backlog)
            + "), generator lag p99 " + fmt(st.lag.percentileNs(99.0) * 1e-3)
            + " us, samples " + std::to_string(st.latency.samples()));
}

/** The level-1 state a single-stream kernel reaches on @p values. */
vpred::service::StreamState
referenceState(const ServiceConfig& cfg, const std::vector<Value>& values)
{
    vpred::MultiGeomConfig kc;
    kc.l1_bits = cfg.l1_bits;
    kc.value_bits = cfg.value_bits;
    kc.stride_bits = cfg.stride_bits;
    kc.hash_shift = cfg.hash_shift;
    kc.l2_bits = cfg.l2_bits;
    vpred::MultiGeomDfcmKernel ref(kc);
    vpred::ValueTrace own;
    for (const Value v : values)
        own.push_back({vpred::Pc{0}, v});
    ref.runTrace(own);
    vpred::service::StreamState st;
    const auto hists = ref.entryHists(0);
    st.hists.assign(hists.begin(), hists.end());
    st.last = ref.lastValue(0);
    return st;
}

/** Compare the sampled streams with the reference kernel (the service
 *  has seen @p seq exactly once). */
void
checkAgainstReference(Run& run, const PredictionService& svc,
                      const ServiceConfig& cfg, const Sequence& seq)
{
    std::unordered_map<std::uint64_t, std::vector<Value>> values;
    for (const std::uint64_t id : seq.sampled)
        values[id];
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const auto it = values.find(seq.stream[i]);
        if (it != values.end())
            it->second.push_back(seq.value[i]);
    }
    std::size_t matched = 0;
    for (const auto& [id, vals] : values) {
        const auto got = svc.streamState(id);
        matched += got && *got == referenceState(cfg, vals) ? 1 : 0;
    }
    run.report.check(matched == values.size(),
                     std::to_string(matched) + "/"
                             + std::to_string(values.size())
                             + " sampled streams match the single-stream"
                               " reference kernel");
}

/** Snapshot every stream of @p svc, restore into a fresh service and
 *  compare the sampled streams; report the times and size. */
void
snapshotRoundTrip(Run& run, const ServiceConfig& cfg,
                  const PredictionService& svc, const Sequence& seq)
{
    SpanBuffer* spans = run.spans;
    const std::string path = run.opt.work_dir + "/snapshot_"
            + run.opt.workload + ".vpt2";
    const std::uint64_t s0 = nowNs();
    {
        const ScopedSpan s(spans, "service.snapshot", 0, 0);
        svc.snapshotTo(path);
    }
    const double snapshot_s = secondsSince(s0);
    const auto bytes = std::filesystem::file_size(path);
    PredictionService restored(cfg);
    const std::uint64_t r0 = nowNs();
    {
        const ScopedSpan s(spans, "service.restore", 0, 0);
        restored.restoreFrom(path);
    }
    const double restore_s = secondsSince(r0);
    std::filesystem::remove(path);
    std::size_t same = 0;
    for (const std::uint64_t id : seq.sampled) {
        const auto a = svc.streamState(id);
        const auto b = restored.streamState(id);
        same += a && b && *a == *b ? 1 : 0;
    }
    run.report.check(same == seq.sampled.size(),
                     std::to_string(same) + "/"
                             + std::to_string(seq.sampled.size())
                             + " sampled streams survive snapshot and"
                               " restore");
    run.report.note("snapshot_s = " + fmt(snapshot_s + restore_s, 6)
                    + " s (snapshotTo " + fmt(snapshot_s, 6)
                    + " s + restoreFrom " + fmt(restore_s, 6) + " s, "
                    + std::to_string(bytes) + " bytes)");
    if (run.opt.trace) {
        run.report.metric("service.snapshot.busy_s", snapshot_s, "s");
        run.report.metric("service.snapshot.bytes",
                          static_cast<double>(bytes), "bytes");
        run.report.metric("service.restore.busy_s", restore_s, "s");
    }
}

struct ServiceCounters
{
    ServiceStats stats;
    vpred::service::IngestStats ingest;
};

ServiceCounters
counters(const PredictionService& svc)
{
    return {svc.stats(), svc.ingestStats()};
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Everything after set-up; @p seq and @p svc come from the last
 *  set-up. */
void
measureService(Run& run, const ServiceConfig& cfg, const Sequence& seq,
               std::unique_ptr<PredictionService> svc)
{
    SpanBuffer* spans = run.spans;
    Producer prod = svc->registerProducer();
    std::uint64_t on_shard0 = 0;
    for (const std::uint64_t id : seq.stream)
        on_shard0 += svc->shardOf(id) == 0 ? 1 : 0;
    run.report.note("records per shard: " + std::to_string(on_shard0) + " / "
                    + std::to_string(seq.size() - on_shard0));

    // 1. Closed loop: the first pass into the fresh service is the
    // fixed sequence hit_rate is defined on.
    const double first_s = closedLoopPass(*svc, prod, seq, spans, 0);
    const ServiceStats after_first = svc->stats();
    run.report.check(after_first.ingested == seq.size()
                             && after_first.predictions == seq.size(),
                     "closed loop fed every record exactly once");
    run.report.metric("hit_rate",
                      ratio(static_cast<double>(after_first.correct_col0),
                            static_cast<double>(after_first.predictions)),
                      "ratio");
    checkAgainstReference(run, *svc, cfg, seq);

    // 2. Snapshot every stream, restore into a fresh service, compare.
    snapshotRoundTrip(run, cfg, *svc, seq);

    // Timed closed-loop passes on the warm service; with tracing on,
    // untraced and traced passes alternate and give the overhead.
    const std::uint64_t timed_start = nowNs();
    std::vector<double> rates, traced_rates;
    PeakRssPerPass rss;
    for (int k = 1; run.opt.trace ? k <= 2 * kClosedPasses
                                  : (k <= kClosedPasses
                                     || secondsSince(timed_start)
                                             < kClosedSeconds);
         ++k) {
        const bool traced = run.opt.trace && k % 2 == 0;
        rss.begin();
        const double s = closedLoopPass(*svc, prod, seq,
                                        traced ? spans : nullptr,
                                        static_cast<std::uint64_t>(k));
        rss.end();
        (traced ? traced_rates : rates)
                .push_back(static_cast<double>(seq.size()) / s);
    }
    run.report.metric("predictions_per_s", median(rates), "1/s");
    run.report.note("(median of " + std::to_string(rates.size())
                    + " untraced closed-loop passes; the first, into the"
                      " fresh service, took "
                    + fmt(first_s) + " s)");
    run.report.check(svc->stats().ingested
                             == seq.size()
                                     * (1 + rates.size() + traced_rates.size()),
                     "closed-loop passes fed every record");
    if (run.opt.trace)
        run.report.metric("bench.traced_over_untraced",
                          median(traced_rates) / median(rates), "ratio");

    // 3. The offered-rate ladder, searched by bisection (assumes the
    // limit, once missed, stays missed at higher rates). The traced
    // run reports per-layer metrics only and skips it.
    std::uint64_t request = 100;
    if (!run.opt.trace) {
        int lo = -1, hi = kLadderSteps;
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            const double rate =
                    kLadderBase * std::exp2(static_cast<double>(mid) / 4.0);
            const Step st = openLoopStep(*svc, prod, seq, seq.size(), rate,
                                         nullptr, nullptr, ++request, 0);
            run.report.check(st.drained + st.refused == st.attempted,
                             "ladder step: fed + refused == attempted");
            const bool ok = st.meetsLimit(cfg.ring_capacity);
            printStep(run, ok ? "ladder pass" : "ladder miss", st);
            (ok ? lo : hi) = mid;
        }
        const double max_rate = lo < 0
                ? 0.0
                : kLadderBase * std::exp2(static_cast<double>(lo) / 4.0);
        run.report.note("max_rate_rps = " + fmt(max_rate, 6)
                        + " 1/s (p99 <= 50 ms, no refusals, no growing"
                          " backlog)");
        run.report.check(max_rate > 0.0, "the lowest ladder rate is met");
    }

    // 4. The reference rate, repeated until the seconds are used.
    const double ref_rate = run.opt.workload == "service_churn"
            ? 1'000'000.0
            : 2'000'000.0;
    // The traced step records a span per generator burst — up to one
    // per record at low rates — and one per pump, so it offers only a
    // prefix of the sequence.
    const std::uint64_t n_ref =
            run.opt.trace ? std::min<std::uint64_t>(kTracedRecords, seq.size())
                          : seq.size();
    SpanBuffer* gen_spans = spans ? &run.tracer.newBuffer() : nullptr;
    if (spans) {
        gen_spans->reserveMore(n_ref);
        spans->reserveMore(n_ref);
    }
    const ServiceCounters before = counters(*svc);
    std::vector<double> p50, p99;
    Step pooled;
    for (int rep = 0;
         run.opt.trace ? rep < 1
                       : (rep < kMinRefReps
                          || secondsSince(timed_start) < run.opt.seconds);
         ++rep) {
        const ScopedSpan step(spans, "bench.reference_step", ++request, 0);
        rss.begin();
        Step st = openLoopStep(*svc, prod, seq, n_ref, ref_rate, gen_spans,
                               spans, request, step.id());
        rss.end();
        printStep(run, "reference", st);
        run.report.check(st.drained + st.refused == st.attempted,
                         "reference step: fed + refused == attempted");
        run.report.operations(st.attempted, st.refused);
        p50.push_back(st.p50Us());
        p99.push_back(st.p99Us());
        pooled.latency.merge(st.latency);
        pooled.lag.merge(st.lag);
        pooled.attempted += st.attempted;
        pooled.refused += st.refused;
        pooled.pump_calls += st.pump_calls;
        pooled.pump_busy_s += st.pump_busy_s;
        pooled.ingest_busy_s += st.ingest_busy_s;
        pooled.drained += st.drained;
        pooled.max_backlog = std::max(pooled.max_backlog, st.max_backlog);
    }
    const ServiceCounters after = counters(*svc);
    svc->unregisterProducer(prod);

    run.report.note(
            "failed_frac = "
            + fmt(ratio(static_cast<double>(pooled.refused),
                        static_cast<double>(pooled.attempted)))
            + " at the reference rate " + fmt(ref_rate, 6) + " 1/s");
    run.report.note("p50_us = " + fmt(median(p50), 6) + " us, p99_us = "
                    + fmt(median(p99), 6) + " us (medians over "
                    + std::to_string(p50.size()) + " repetitions of "
                    + std::to_string(n_ref) + " samples; p"
                    + fmt(supportedPercentile(pooled.latency.samples()), 8)
                    + " of all " + std::to_string(pooled.latency.samples())
                    + " samples = "
                    + fmt(pooled.latency.percentileNs(supportedPercentile(
                                  pooled.latency.samples()))
                                  * 1e-3,
                          6)
                    + " us)");
    rss.report(run);

    if (!run.opt.trace)
        return;
    const auto delta = [&](auto field) {
        return static_cast<double>(after.stats.*field - before.stats.*field);
    };
    const double fed = delta(&ServiceStats::predictions);
    run.report.metric("service.pump.calls",
                      static_cast<double>(pooled.pump_calls), "count");
    run.report.metric("service.pump.busy_s", pooled.pump_busy_s, "s");
    run.report.metric("service.pump.records_per_call",
                      ratio(static_cast<double>(pooled.drained),
                            static_cast<double>(pooled.pump_calls)),
                      "ratio");
    run.report.metric("service.shard.evictions_per_record",
                      ratio(delta(&ServiceStats::evictions), fed), "ratio");
    run.report.metric("service.shard.restores_per_record",
                      ratio(delta(&ServiceStats::restores), fed), "ratio");
    run.report.metric(
            "service.packing.lane_occupancy",
            ratio(fed, 16.0 * delta(&ServiceStats::packed_steps)), "ratio");
    run.report.metric("service.packing.gather_share",
                      ratio(delta(&ServiceStats::gather_records),
                            delta(&ServiceStats::gather_records)
                                    + delta(&ServiceStats::scalar_records)),
                      "ratio");
    run.report.metric("service.try_ingest.calls",
                      static_cast<double>(pooled.attempted), "count");
    run.report.metric("service.try_ingest.refused",
                      static_cast<double>(pooled.refused), "count");
    run.report.metric("service.try_ingest.busy_s", pooled.ingest_busy_s,
                      "s");
    run.report.metric(
            "service.ingest.publish_batch",
            ratio(static_cast<double>(after.ingest.published_records
                                      - before.ingest.published_records),
                  static_cast<double>(after.ingest.publishes
                                      - before.ingest.publishes)),
            "ratio");
    run.report.metric("service.ingest.full_events",
                      static_cast<double>(after.ingest.full_events
                                          - before.ingest.full_events),
                      "count");
    run.report.metric("service.drain.quota_grows",
                      delta(&ServiceStats::quota_grows), "count");
    run.report.metric("service.drain.quota_shrinks",
                      delta(&ServiceStats::quota_shrinks), "count");
    run.report.metric("service.drain.max_backlog",
                      static_cast<double>(pooled.max_backlog), "count");
    run.report.metric("service.generator.lag_p99_us",
                      pooled.lag.percentileNs(99.0) * 1e-3, "us");
    reportSpanLayers(run);
}

} // namespace

void
runServiceChurn(Run& run)
{
    const ServiceConfig cfg = serviceConfig();
    Sequence seq;
    std::unique_ptr<PredictionService> svc;
    timedSetups(run, [&] {
        svc.reset();
        seq = Sequence{};
    }, [&](int) {
        seq = churnSequence(run.opt.seed);
        svc = std::make_unique<PredictionService>(cfg);
    });
    run.report.note("service_churn: " + std::to_string(kChurnStreams)
                    + " streams x " + std::to_string(kChurnRounds)
                    + " rounds, 2 shards x 2^14 resident");
    measureService(run, cfg, seq, std::move(svc));
}

void
runServiceHot(Run& run)
{
    const ServiceConfig cfg = serviceConfig();
    Sequence seq;
    std::unique_ptr<PredictionService> svc;
    std::unique_ptr<vpred::harness::TraceCache> cache;
    std::vector<double> generate;
    timedSetups(run, [&] {
        svc.reset();
        seq = Sequence{};
        cache.reset();
    }, [&](int k) {
        const std::uint64_t t0 = nowNs();
        cache = generateTraces(run, kHotScale,
                               Run::kSetupRequest
                                       + static_cast<std::uint64_t>(k));
        generate.push_back(secondsSince(t0));
        seq = hotSequence(run.opt.seed, *cache);
        svc = std::make_unique<PredictionService>(cfg);
    });
    std::unordered_map<std::uint64_t, char> distinct;
    for (const std::uint64_t id : seq.stream)
        distinct.emplace(id, 0);
    run.report.note("service_hot: " + std::to_string(seq.size())
                    + " records over " + std::to_string(distinct.size())
                    + " (trace, pc) streams, 2 shards x 2^14 resident");
    if (run.opt.trace)
        reportSimLayer(run, *cache, median(generate));
    measureService(run, cfg, seq, std::move(svc));
}

} // namespace perfbench
