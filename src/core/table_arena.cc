/**
 * @file
 * Table arena allocation backends. This translation unit (with
 * trace_io and the harness trace store) is the only sanctioned
 * caller of the raw page-level APIs — the portability/raw-mmap
 * lint rule enforces that confinement.
 */

#include "core/table_arena.hh"

#include <cstdint>
#include <cstring>
#include <new>

#include <sys/mman.h>

namespace vpred
{
namespace table_arena
{
namespace
{

/** Sanitizer builds always use plain new so redzones/instrumentation
 *  cover every table byte; a raw mapping would hide them. */
constexpr bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

/** Map @p bytes rounded up to the huge-page granule, aligned to it,
 *  and hint THP. Returns nullptr when the kernel refuses the mapping
 *  (the caller falls back to plain allocation); a refused madvise is
 *  tolerated — the mapping still works on base pages. */
void*
mapHuge(std::size_t bytes)
{
    const std::size_t granule = kHugeThresholdBytes;
    const std::size_t len = (bytes + granule - 1) & ~(granule - 1);
    // Over-allocate by one granule so a granule-aligned window always
    // fits, then trim the misaligned head and tail back to the kernel.
    void* raw = ::mmap(nullptr, len + granule, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        return nullptr;
    auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (base + granule - 1) & ~(granule - 1);
    const std::size_t head = aligned - base;
    if (head != 0)
        ::munmap(raw, head);
    const std::size_t tail = granule - head;
    if (tail != 0)
        ::munmap(reinterpret_cast<void*>(aligned + len), tail);
    void* p = reinterpret_cast<void*>(aligned);
    // Best-effort: THP disabled or an old kernel leaves base pages,
    // which is the documented graceful-degradation path.
    (void)::madvise(p, len, MADV_HUGEPAGE);
    return p;
}

void*
allocPlain(std::size_t bytes)
{
    void* p = ::operator new(bytes, std::align_val_t{kAlignBytes});
    std::memset(p, 0, bytes);
    return p;
}

} // namespace

ArenaBacking
planBackingFor(std::size_t bytes)
{
    if (bytes == 0)
        return ArenaBacking::None;
    return bytes >= kHugeThresholdBytes && !sanitizerBuild()
            ? ArenaBacking::Mmap
            : ArenaBacking::New;
}

void*
allocate(std::size_t bytes, ArenaBacking& backing)
{
    backing = planBackingFor(bytes);
    if (backing == ArenaBacking::None)
        return nullptr;
    if (backing == ArenaBacking::Mmap) {
        if (void* p = mapHuge(bytes))
            return p;
        backing = ArenaBacking::New;  // kernel refused; degrade
    }
    return allocPlain(bytes);
}

void
deallocate(void* p, std::size_t bytes, ArenaBacking backing)
{
    if (p == nullptr)
        return;
    if (backing == ArenaBacking::Mmap) {
        const std::size_t granule = kHugeThresholdBytes;
        const std::size_t len = (bytes + granule - 1) & ~(granule - 1);
        ::munmap(p, len);
        return;
    }
    ::operator delete(p, std::align_val_t{kAlignBytes});
}

} // namespace table_arena
} // namespace vpred
