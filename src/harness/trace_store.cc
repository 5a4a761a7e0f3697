#include "harness/trace_store.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/env_util.hh"
#include "workloads/workload.hh"

namespace vpred::harness
{

// Mapped records are reinterpreted in place; the serialized payload
// is little-endian, so the host must be too (the stream codec in
// core/trace_io.cc stays portable either way).
static_assert(std::endian::native == std::endian::little,
              "the mmap'd trace store requires a little-endian host");

namespace
{

std::string
errnoString()
{
    return std::strerror(errno);
}

/**
 * Owns a file descriptor for the duration of a scope, so every
 * throwing path out of mapFile() structurally closes it — an fd leak
 * cannot be reintroduced by adding a new early return.
 */
class ScopedFd
{
  public:
    explicit ScopedFd(int fd) noexcept : fd_(fd) {}
    ~ScopedFd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    ScopedFd(const ScopedFd&) = delete;
    ScopedFd& operator=(const ScopedFd&) = delete;

    int get() const noexcept { return fd_; }

  private:
    int fd_;
};

/** fsync @p path (a file or a directory), opened read-only. */
void
syncPath(const std::string& path)
{
    const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0 || ::fsync(fd.get()) != 0)
        throw TraceIoError("cannot fsync " + path + ": " + errnoString());
}

} // namespace

void
writeFileAtomic(const std::string& path,
                const std::function<void(std::ostream&)>& write)
{
    namespace fs = std::filesystem;
    // Unique temp name per process and thread, so racing writers
    // never share a temp file.
    const std::string tmp = path + ".tmp."
            + std::to_string(static_cast<long long>(::getpid())) + "."
            + std::to_string(std::hash<std::thread::id>{}(
                      std::this_thread::get_id()));
    try {
        {
            std::ofstream out(tmp, std::ios::out | std::ios::binary
                                           | std::ios::trunc);
            if (!out)
                throw TraceIoError("cannot open " + tmp
                                   + " for writing");
            write(out);
            out.close();
            if (!out)
                throw TraceIoError("short write to " + tmp);
        }
        // Data before name: without this fsync a crash after the
        // rename can leave an empty file under the final name.
        syncPath(tmp);
        std::error_code ec;
        fs::rename(tmp, path, ec);
        if (ec)
            throw TraceIoError("cannot install " + path + ": "
                               + ec.message());
    } catch (...) {
        std::error_code ec;
        fs::remove(tmp, ec);
        throw;
    }
    // Make the rename itself durable.
    const fs::path dir = fs::path(path).parent_path();
    syncPath(dir.empty() ? "." : dir.string());
}

void
MappedTrace::unmap() noexcept
{
    // exchange() nulls the pointer before the munmap call, so even a
    // re-entrant or repeated unmap (destructor after move-assign,
    // self-move-assign) can never pass the same region twice.
    void* map = std::exchange(map_, nullptr);
    const std::size_t size = std::exchange(map_size_, 0);
    records_ = nullptr;
    count_ = 0;
    if (map != nullptr)
        ::munmap(map, size);
}

MappedTrace::~MappedTrace()
{
    unmap();
}

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      records_(std::exchange(other.records_, nullptr)),
      count_(std::exchange(other.count_, 0)),
      meta_(std::move(other.meta_))
{
}

MappedTrace&
MappedTrace::operator=(MappedTrace&& other) noexcept
{
    if (this == &other)
        return *this;  // self-move keeps the mapping intact
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    records_ = std::exchange(other.records_, nullptr);
    count_ = std::exchange(other.count_, 0);
    meta_ = std::move(other.meta_);
    return *this;
}

std::string
TraceStore::envDir()
{
    return envRaw("REPRO_TRACE_DIR").value_or(std::string());
}

TraceStore::TraceStore(std::string dir) : dir_(std::move(dir)) {}

std::string
TraceStore::entryPath(const std::string& workload, double scale) const
{
    // The exact scale keys the entry via its bit pattern: any change
    // to REPRO_TRACE_SCALE, however small, selects a different file.
    char scale_hex[17];
    std::snprintf(scale_hex, sizeof(scale_hex), "%016llx",
                  static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(scale)));
    return dir_ + "/" + workload + ".s" + scale_hex + ".g"
            + std::to_string(workloads::kTraceGeneratorVersion)
            + ".vpt2";
}

MappedTrace
TraceStore::mapFile(const std::string& path)
{
    Vpt2Layout layout;
    {
        std::ifstream in(path, std::ios::in | std::ios::binary);
        if (!in)
            throw TraceIoError("cannot open " + path);
        layout = readVpt2Header(in);
    }
    if (layout.record_count > (1ull << 33))
        throw TraceIoError("implausible record count in " + path);

    const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0)
        throw TraceIoError("cannot open " + path + ": " + errnoString());
    struct stat st;
    if (::fstat(fd.get(), &st) != 0)
        throw TraceIoError("cannot stat " + path + ": " + errnoString());
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    const std::uint64_t need = layout.records_offset
            + layout.record_count * sizeof(TraceRecord);
    if (size < need)
        throw TraceIoError("truncated VPT2 file " + path + ": have "
                           + std::to_string(size) + " bytes, header needs "
                           + std::to_string(need));

    void* map =
            ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
    if (map == MAP_FAILED)
        throw TraceIoError("mmap failed for " + path + ": "
                           + errnoString());

    MappedTrace mt;
    mt.map_ = map;
    mt.map_size_ = size;
    mt.records_ = reinterpret_cast<const TraceRecord*>(
            static_cast<const char*>(map) + layout.records_offset);
    mt.count_ = layout.record_count;
    mt.meta_ = layout.meta;

    // Sequential verification pass; also warms the page cache for
    // the sweep that follows.
    if (traceChecksum(mt.records()) != layout.checksum)
        throw TraceIoError("VPT2 checksum mismatch in " + path);
    return mt;
}

std::optional<MappedTrace>
TraceStore::load(const std::string& workload, double scale) const
{
    if (!enabled())
        return std::nullopt;
    const std::string path = entryPath(workload, scale);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return std::nullopt;
    try {
        MappedTrace mt = mapFile(path);
        // The filename already encodes the key, but the header is
        // authoritative: a renamed or hand-edited file must miss.
        if (mt.meta().workload != workload
            || std::bit_cast<std::uint64_t>(mt.meta().scale)
                       != std::bit_cast<std::uint64_t>(scale)
            || mt.meta().generator_version
                       != workloads::kTraceGeneratorVersion) {
            std::cerr << "warning: trace-store entry " << path
                      << " has a stale key; regenerating\n";
            return std::nullopt;
        }
        return mt;
    } catch (const TraceIoError& e) {
        std::cerr << "warning: ignoring corrupt trace-store entry "
                  << path << ": " << e.what() << "\n";
        return std::nullopt;
    }
}

void
TraceStore::store(const std::string& workload, double scale,
                  const sim::TraceResult& result) const
{
    if (!enabled())
        return;
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw TraceIoError("cannot create trace-store directory " + dir_
                           + ": " + ec.message());

    Vpt2Meta meta;
    meta.workload = workload;
    meta.scale = scale;
    meta.generator_version = workloads::kTraceGeneratorVersion;
    meta.instructions = result.instructions;
    meta.output = result.output;
    writeFileAtomic(entryPath(workload, scale), [&](std::ostream& out) {
        writeTraceVpt2(out, result.trace, meta);
    });
}

} // namespace vpred::harness
