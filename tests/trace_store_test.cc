/**
 * @file
 * Tests for the persistent memory-mapped trace store and its
 * TraceCache integration: VPT2 round-trips through disk, corrupt and
 * truncated entries are rejected, keying on scale and generator
 * version never serves a stale trace, warm lookups are zero-copy
 * views into the mapping, racing cold populations run the workload
 * VM exactly once, and the atomic file install leaves no temp file
 * behind on success or failure. Lives in its own binary (labelled
 * "concurrency") so the racing tests run under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/trace_io.hh"
#include "harness/trace_cache.hh"
#include "harness/trace_store.hh"
#include "workloads/workload.hh"

namespace vpred::harness
{
namespace
{

namespace fs = std::filesystem;

constexpr double kScale = 0.03;

/** Self-cleaning unique store directory per test. */
class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        dir_ = fs::temp_directory_path() /
               ("vpred_store_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
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

bool
sameRecords(std::span<const TraceRecord> a, const ValueTrace& b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
}

TEST(TraceStore, DisabledWithoutDirectory)
{
    const TraceStore store("");
    EXPECT_FALSE(store.enabled());
    EXPECT_FALSE(store.load("norm", kScale).has_value());
}

TEST(TraceStore, RoundTripsTraceResult)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    ASSERT_TRUE(store.enabled());

    const sim::TraceResult result =
            workloads::runWorkload("norm", kScale);
    store.store("norm", kScale, result);

    const auto mapped = store.load("norm", kScale);
    ASSERT_TRUE(mapped.has_value());
    EXPECT_TRUE(sameRecords(mapped->records(), result.trace));
    EXPECT_EQ(mapped->instructions(), result.instructions);
    EXPECT_EQ(mapped->output(), result.output);
    EXPECT_EQ(mapped->meta().workload, "norm");
    EXPECT_EQ(mapped->meta().scale, kScale);
    EXPECT_EQ(mapped->meta().generator_version,
              workloads::kTraceGeneratorVersion);
}

TEST(TraceStore, MissesOnEmptyStore)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    EXPECT_FALSE(store.load("norm", kScale).has_value());
}

TEST(TraceStore, KeysOnExactScale)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    store.store("norm", kScale, workloads::runWorkload("norm", kScale));

    // A different scale is a different entry: no stale hit.
    EXPECT_FALSE(store.load("norm", 2 * kScale).has_value());
    EXPECT_NE(store.entryPath("norm", kScale),
              store.entryPath("norm", 2 * kScale));
}

TEST(TraceStore, RejectsMismatchedHeaderKey)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    const sim::TraceResult result =
            workloads::runWorkload("norm", kScale);
    store.store("norm", kScale, result);

    // A file renamed to another scale's key carries the wrong header
    // scale: load() must treat it as a miss, not serve it.
    fs::copy_file(store.entryPath("norm", kScale),
                  store.entryPath("norm", 0.06));
    EXPECT_FALSE(store.load("norm", 0.06).has_value());
}

TEST(TraceStore, RejectsStaleGeneratorVersion)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    const sim::TraceResult result =
            workloads::runWorkload("norm", kScale);

    // Hand-write an entry at the right path whose header claims a
    // different workload-generation version.
    Vpt2Meta meta;
    meta.workload = "norm";
    meta.scale = kScale;
    meta.generator_version = workloads::kTraceGeneratorVersion + 1;
    meta.instructions = result.instructions;
    meta.output = result.output;
    std::ofstream out(store.entryPath("norm", kScale),
                      std::ios::binary);
    writeTraceVpt2(out, result.trace, meta);
    out.close();

    EXPECT_FALSE(store.load("norm", kScale).has_value());
}

TEST(TraceStore, RejectsCorruptedPayload)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    store.store("norm", kScale, workloads::runWorkload("norm", kScale));
    const std::string path = store.entryPath("norm", kScale);

    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(-1, std::ios::end);
        const char flip = static_cast<char>(f.peek() ^ 0x01);
        f.put(flip);
    }

    EXPECT_THROW(TraceStore::mapFile(path), TraceIoError);
    EXPECT_FALSE(store.load("norm", kScale).has_value());
}

TEST(TraceStore, RejectsTruncatedFile)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    store.store("norm", kScale, workloads::runWorkload("norm", kScale));
    const std::string path = store.entryPath("norm", kScale);

    fs::resize_file(path, fs::file_size(path) - 17);
    EXPECT_THROW(TraceStore::mapFile(path), TraceIoError);
    EXPECT_FALSE(store.load("norm", kScale).has_value());
}

/** Open file descriptors of this process, via /proc/self/fd. */
std::size_t
openFdCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         fs::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

/** Entries of @p dir whose name contains ".tmp". */
std::vector<std::string>
tempFiles(const std::string& dir)
{
    std::vector<std::string> out;
    for (const fs::directory_entry& e : fs::directory_iterator(dir))
        if (e.path().filename().string().find(".tmp")
            != std::string::npos)
            out.push_back(e.path().string());
    return out;
}

TEST(WriteFileAtomic, InstallsBytesAndLeavesNoTempFile)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/entry.bin";
    const std::string first(3000, 'a');
    const std::string second = "replaced";
    for (const std::string& bytes : {first, second}) {
        writeFileAtomic(path, [&](std::ostream& out) { out << bytes; });
        std::ifstream in(path, std::ios::binary);
        const std::string got((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        EXPECT_EQ(got, bytes);
        EXPECT_TRUE(tempFiles(tmp.str()).empty());
    }
}

TEST(WriteFileAtomic, FailedRenameLeavesNoTempFile)
{
    // A non-empty directory under the target name makes the rename
    // fail after the temp file has been written and synced.
    TempDir tmp;
    const std::string path = tmp.str() + "/entry.bin";
    fs::create_directories(path + "/occupied");
    EXPECT_THROW(writeFileAtomic(path,
                                 [](std::ostream& out) { out << "x"; }),
                 TraceIoError);
    EXPECT_TRUE(tempFiles(tmp.str()).empty());
    EXPECT_TRUE(fs::is_directory(path + "/occupied"));
}

TEST(WriteFileAtomic, ThrowingWriterLeavesNoTempFile)
{
    TempDir tmp;
    const std::string path = tmp.str() + "/entry.bin";
    EXPECT_THROW(writeFileAtomic(path,
                                 [](std::ostream& out) {
                                     out << "partial";
                                     throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);
    EXPECT_TRUE(tempFiles(tmp.str()).empty());
    EXPECT_FALSE(fs::exists(path));
}

TEST(MappedTrace, SelfMoveAssignKeepsMappingIntact)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    const sim::TraceResult result =
            workloads::runWorkload("norm", kScale);
    store.store("norm", kScale, result);

    MappedTrace mt = TraceStore::mapFile(store.entryPath("norm", kScale));
    ASSERT_TRUE(mt.valid());

    // Route the self-move through a reference so the compiler cannot
    // warn it away; the mapping must survive and stay readable (a
    // double-munmap here would poison the pages).
    MappedTrace& alias = mt;
    mt = std::move(alias);
    ASSERT_TRUE(mt.valid());
    EXPECT_TRUE(sameRecords(mt.records(), result.trace));
}

TEST(MappedTrace, MoveAssignOverLiveMappingUnmapsOnce)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    const sim::TraceResult norm =
            workloads::runWorkload("norm", kScale);
    store.store("norm", kScale, norm);

    MappedTrace a = TraceStore::mapFile(store.entryPath("norm", kScale));
    MappedTrace b = TraceStore::mapFile(store.entryPath("norm", kScale));
    const void* b_map = b.mappingData();

    // a's old mapping is released exactly once; a now owns b's.
    a = std::move(b);
    EXPECT_FALSE(b.valid());       // NOLINT: moved-from probe
    EXPECT_EQ(b.mappingSize(), 0u);
    ASSERT_TRUE(a.valid());
    EXPECT_EQ(a.mappingData(), b_map);
    EXPECT_TRUE(sameRecords(a.records(), norm.trace));

    // The moved-from object is reusable: destroying it (end of
    // scope) must not touch the mapping a now owns, and it can be
    // re-assigned a fresh mapping first.
    b = TraceStore::mapFile(store.entryPath("norm", kScale));
    EXPECT_TRUE(b.valid());
    EXPECT_TRUE(sameRecords(b.records(), norm.trace));
}

TEST(MappedTrace, MoveChainThenDestructorsDoNotDoubleUnmap)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    const sim::TraceResult result =
            workloads::runWorkload("norm", kScale);
    store.store("norm", kScale, result);

    MappedTrace outer;
    {
        MappedTrace inner =
                TraceStore::mapFile(store.entryPath("norm", kScale));
        MappedTrace mid = std::move(inner);
        outer = std::move(mid);
        // inner and mid both destruct here while outer holds the
        // mapping; under ASan a double munmap or stale access fails.
    }
    ASSERT_TRUE(outer.valid());
    EXPECT_TRUE(sameRecords(outer.records(), result.trace));
}

TEST(MappedTrace, FailedMapLeaksNoFileDescriptor)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    store.store("norm", kScale, workloads::runWorkload("norm", kScale));
    const std::string path = store.entryPath("norm", kScale);
    fs::resize_file(path, fs::file_size(path) - 17);

    const std::size_t before = openFdCount();
    for (int i = 0; i < 8; ++i)
        EXPECT_THROW(TraceStore::mapFile(path), TraceIoError);
    EXPECT_EQ(openFdCount(), before);
}

TEST(MappedTrace, SuccessfulMapLeaksNoFileDescriptor)
{
    TempDir tmp;
    const TraceStore store(tmp.str());
    store.store("norm", kScale, workloads::runWorkload("norm", kScale));
    const std::string path = store.entryPath("norm", kScale);

    const std::size_t before = openFdCount();
    {
        const MappedTrace mt = TraceStore::mapFile(path);
        ASSERT_TRUE(mt.valid());
        // mmap keeps the pages alive without the fd; it must already
        // be closed while the mapping is still in use.
        EXPECT_EQ(openFdCount(), before);
    }
    EXPECT_EQ(openFdCount(), before);
}

TEST(TraceCacheStore, ColdThenWarmServesIdenticalTrace)
{
    TempDir tmp;

    TraceCache cold(kScale, tmp.str());
    const std::span<const TraceRecord> generated =
            cold.getSpan("norm");
    ASSERT_FALSE(generated.empty());
    const auto cold_stats = cold.acquisition();
    EXPECT_EQ(cold_stats.generated, 1u);
    EXPECT_EQ(cold_stats.store_misses, 1u);
    EXPECT_EQ(cold_stats.store_writes, 1u);
    EXPECT_FALSE(cold.mappingInfo("norm").mapped);

    TraceCache warm(kScale, tmp.str());
    const std::span<const TraceRecord> mapped = warm.getSpan("norm");
    const auto warm_stats = warm.acquisition();
    EXPECT_EQ(warm_stats.generated, 0u);
    EXPECT_EQ(warm_stats.store_hits, 1u);
    ASSERT_EQ(mapped.size(), generated.size());
    EXPECT_TRUE(std::equal(mapped.begin(), mapped.end(),
                           generated.begin()));
    EXPECT_EQ(warm.instructions("norm"), cold.instructions("norm"));
    EXPECT_EQ(warm.programOutput("norm"), cold.programOutput("norm"));
    // Whole-result materialization still works on mapped entries.
    EXPECT_EQ(warm.getResult("norm").trace.size(), mapped.size());
}

TEST(TraceCacheStore, WarmSpanAliasesTheMapping)
{
    TempDir tmp;
    TraceCache(kScale, tmp.str()).getSpan("norm");

    TraceCache warm(kScale, tmp.str());
    const std::span<const TraceRecord> span = warm.getSpan("norm");
    const TraceCache::MappingInfo info = warm.mappingInfo("norm");
    ASSERT_TRUE(info.mapped);

    // Zero-copy: the span's storage lies inside the mmap'd file.
    const char* base = static_cast<const char*>(info.data);
    const char* lo = reinterpret_cast<const char*>(span.data());
    EXPECT_GE(lo, base);
    EXPECT_LE(lo + span.size_bytes(), base + info.size);
}

TEST(TraceCacheStore, ScaleChangeNeverHitsStaleEntry)
{
    TempDir tmp;
    TraceCache a(kScale, tmp.str());
    a.getSpan("norm");

    TraceCache b(0.06, tmp.str());
    b.getSpan("norm");
    const auto stats = b.acquisition();
    EXPECT_EQ(stats.store_hits, 0u);
    EXPECT_EQ(stats.generated, 1u);
    EXPECT_NE(b.getSpan("norm").size(), 0u);
}

TEST(TraceCacheStore, RacingColdLookupsGenerateOnce)
{
    TempDir tmp;
    TraceCache cache(kScale, tmp.str());

    std::span<const TraceRecord> a, b;
    std::thread t1([&] { a = cache.getSpan("norm"); });
    std::thread t2([&] { b = cache.getSpan("norm"); });
    t1.join();
    t2.join();

    // The documented getResult race: both threads used to find no
    // entry and run the VM twice. Per-key once semantics mean one
    // generation, one store write, and both callers share the span.
    EXPECT_EQ(cache.acquisition().generated, 1u);
    EXPECT_EQ(cache.acquisition().store_writes, 1u);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_EQ(a.size(), b.size());
}

TEST(TraceCacheStore, RacingLookupsWithoutStoreGenerateOnce)
{
    TraceCache cache(kScale, "");
    EXPECT_FALSE(cache.storeEnabled());

    std::span<const TraceRecord> a, b;
    std::thread t1([&] { a = cache.getSpan("compress"); });
    std::thread t2([&] { b = cache.getSpan("compress"); });
    t1.join();
    t2.join();

    EXPECT_EQ(cache.acquisition().generated, 1u);
    EXPECT_EQ(a.data(), b.data());
}

TEST(TraceCacheStore, PrewarmPopulatesAndReuses)
{
    TempDir tmp;
    const std::vector<std::string> names{"norm", "compress", "norm"};

    TraceCache cold(kScale, tmp.str());
    cold.prewarm(names);
    EXPECT_EQ(cold.acquisition().generated, 2u);

    TraceCache warm(kScale, tmp.str());
    warm.prewarm(names);
    EXPECT_EQ(warm.acquisition().generated, 0u);
    EXPECT_EQ(warm.acquisition().store_hits, 2u);
}

} // namespace
} // namespace vpred::harness
