/**
 * @file
 * Persistent, memory-mapped workload trace store.
 *
 * The in-memory TraceCache decouples trace generation from the many
 * predictor configurations of one sweep, but every *process* still
 * pays the full MiniRISC VM cost for every workload. The TraceStore
 * persists generated traces as VPT2 containers (core/trace_io.hh)
 * in a directory selected by the REPRO_TRACE_DIR environment
 * variable, so the whole figure/ablation fleet generates each trace
 * once per machine and afterwards acquires it by mmap.
 *
 * Entries are keyed on (workload name, exact trace scale,
 * workloads::kTraceGeneratorVersion): changing REPRO_TRACE_SCALE or
 * revising a workload kernel misses cleanly instead of serving a
 * stale trace. Writes go through writeFileAtomic(): a temp file in
 * the same directory, fsynced, then atomically renamed, so
 * concurrent processes (or racing threads) populating the same entry
 * are safe — last rename wins, and every rename installs a complete,
 * checksummed file.
 *
 * Readers validate the header and the FNV-1a payload checksum, then
 * hand out a MappedTrace whose records() span aliases the mapping
 * directly — the 64-byte-aligned record section is exactly an array
 * of TraceRecord, so sweeps run zero-copy over the file's pages.
 */

#ifndef DFCM_HARNESS_TRACE_STORE_HH
#define DFCM_HARNESS_TRACE_STORE_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "core/trace_io.hh"
#include "core/types.hh"
#include "sim/tracer.hh"

namespace vpred::harness
{

// The mmap'd record section is reinterpreted as TraceRecord[], so
// the in-memory layout must match the serialized one exactly.
static_assert(sizeof(TraceRecord) == 16,
              "VPT2 records are 16 bytes on disk");
static_assert(alignof(TraceRecord) <= 16 && 64 % alignof(TraceRecord) == 0,
              "64-byte-aligned record sections must align TraceRecord");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "mapped records are read without construction");
static_assert(offsetof(TraceRecord, pc) == 0
                      && offsetof(TraceRecord, value) == 8,
              "VPT2 stores pc at offset 0 and value at offset 8");

/**
 * Install @p path atomically and durably: @p write fills a temp file
 * in the same directory (unique per process and thread), which is
 * fsynced, renamed over @p path, and then the directory is fsynced.
 * After a crash at any point @p path therefore holds either its
 * previous contents (or nothing) or the complete new file. The temp
 * file is removed on every failure path.
 * @throws TraceIoError on an I/O failure; whatever @p write throws
 *         propagates unchanged.
 */
void writeFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write);

/**
 * A read-only memory mapping of one VPT2 store entry.
 *
 * Movable, non-copyable; unmaps on destruction. records() stays
 * valid exactly as long as the MappedTrace lives, so holders (the
 * TraceCache) must outlive every span they hand out.
 */
class MappedTrace
{
  public:
    MappedTrace() = default;
    ~MappedTrace();

    MappedTrace(MappedTrace&& other) noexcept;
    MappedTrace& operator=(MappedTrace&& other) noexcept;
    MappedTrace(const MappedTrace&) = delete;
    MappedTrace& operator=(const MappedTrace&) = delete;

    /** Zero-copy view of the mapped record section. */
    std::span<const TraceRecord>
    records() const
    {
        return {records_, count_};
    }

    std::uint64_t instructions() const { return meta_.instructions; }
    const std::string& output() const { return meta_.output; }
    const Vpt2Meta& meta() const { return meta_; }

    /** Mapping bounds, for tests asserting spans alias the file. */
    const void* mappingData() const { return map_; }
    std::size_t mappingSize() const { return map_size_; }

    bool valid() const { return map_ != nullptr; }

  private:
    friend class TraceStore;

    /** Release the mapping (idempotent; nulls state before munmap). */
    void unmap() noexcept;

    void* map_ = nullptr;
    std::size_t map_size_ = 0;
    const TraceRecord* records_ = nullptr;
    std::size_t count_ = 0;
    Vpt2Meta meta_;
};

/**
 * The on-disk trace store: a directory of VPT2 containers.
 *
 * All methods are const and thread-safe (the store holds no mutable
 * state; concurrent writes are serialized by atomic renames).
 * A store constructed with an empty directory is disabled: load()
 * always misses and store() is a no-op.
 */
class TraceStore
{
  public:
    /** Store directory from REPRO_TRACE_DIR ("" = disabled). */
    static std::string envDir();

    explicit TraceStore(std::string dir = envDir());

    bool enabled() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /**
     * Path of the entry for (@p workload, @p scale) at the current
     * generator version. The exact scale is encoded via its IEEE-754
     * bit pattern, so e.g. 0.1 and 0.1000001 key different entries.
     */
    std::string entryPath(const std::string& workload,
                          double scale) const;

    /**
     * Look up and map an entry. Returns nullopt on a plain miss, on
     * a key mismatch (stale scale/version/name — also a miss), or on
     * a corrupt file (validation or checksum failure; warns once per
     * file on stderr). Never throws on bad data: a broken store
     * entry degrades to regeneration.
     */
    std::optional<MappedTrace> load(const std::string& workload,
                                    double scale) const;

    /**
     * Persist @p result for (@p workload, @p scale) through
     * writeFileAtomic(). Creates the directory if needed. No-op when
     * disabled. @throws TraceIoError on I/O failure.
     */
    void store(const std::string& workload, double scale,
               const sim::TraceResult& result) const;

    /**
     * Map an arbitrary VPT2 file with full validation (header,
     * geometry, checksum). @throws TraceIoError — this is the
     * strict path used by tools; load() wraps it per entry.
     */
    static MappedTrace mapFile(const std::string& path);

  private:
    std::string dir_;
};

} // namespace vpred::harness

#endif // DFCM_HARNESS_TRACE_STORE_HH
