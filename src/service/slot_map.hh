/**
 * @file
 * Open-addressing map from 64-bit stream ids to dense kernel entries.
 *
 * Every stream a shard has seen owns one permanent level-1 entry in
 * the shard's kernel, numbered densely in first-appearance order so
 * the kernel's bank stays fully utilized however sparse the stream-id
 * space is. The map is the shard's hot lookup (one probe sequence per
 * ingested record), so it is a flat power-of-two table with linear
 * probing that doubles to stay at most half full. Entries are never
 * removed, so there is no deletion path and no tombstone; iteration
 * order never matters (lookups only).
 */

#ifndef DFCM_SERVICE_SLOT_MAP_HH
#define DFCM_SERVICE_SLOT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/table_arena.hh"

namespace vpred::service
{

/** SplitMix64 finalizer: stream ids are often small sequential
 *  integers, so the raw id is a terrible probe start. */
inline std::uint64_t
mixStreamId(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class SlotMap
{
  public:
    /**
     * @param expected_entries Keys to size the first table for; the
     * table is kept at most half full and doubles past that, so probe
     * chains stay short.
     */
    explicit SlotMap(std::size_t expected_entries)
    {
        std::size_t buckets = 16;
        while (buckets < expected_entries * 2)
            buckets *= 2;
        mask_ = buckets - 1;
        buckets_.assign(buckets);
    }

    std::size_t size() const { return size_; }

    /** Entry of @p stream, or nullopt for a stream never inserted. */
    std::optional<std::uint32_t>
    find(std::uint64_t stream) const
    {
        for (std::size_t b = mixStreamId(stream) & mask_;
             buckets_[b].used; b = (b + 1) & mask_) {
            if (buckets_[b].key == stream)
                return buckets_[b].slot;
        }
        return std::nullopt;
    }

    /** Pull @p stream's home bucket toward the cache ahead of a
     *  find() — the map spans millions of streams, so a cold probe
     *  is a full DRAM round trip the drain loop can overlap with the
     *  records in front of it. */
    void
    prefetch(std::uint64_t stream) const
    {
        __builtin_prefetch(&buckets_[mixStreamId(stream) & mask_]);
    }

    /** Insert @p stream -> @p slot. Returns false (and changes
     *  nothing) when the key is already present — bookkeeping gone
     *  wrong must surface as a checkable status, not a corrupted
     *  table. Grows to stay at most half full. */
    [[nodiscard]] bool
    insert(std::uint64_t stream, std::uint32_t slot)
    {
        if ((size_ + 1) * 2 > mask_ + 1)
            grow();
        std::size_t b = mixStreamId(stream) & mask_;
        while (buckets_[b].used) {
            if (buckets_[b].key == stream)
                return false;
            b = (b + 1) & mask_;
        }
        buckets_[b] = {stream, slot, 1};
        ++size_;
        return true;
    }

  private:
    // One 16-byte bucket per probe position: a cold lookup touches a
    // single cache line instead of separate key/slot/used arrays
    // (three lines) — the difference is the whole probe cost once
    // the map outgrows the last-level cache.
    struct Bucket
    {
        std::uint64_t key = 0;
        std::uint32_t slot = 0;
        std::uint8_t used = 0;
    };

    void
    grow()
    {
        const std::size_t buckets = (mask_ + 1) * 2;
        TableBuffer<Bucket> table(buckets);
        const std::size_t mask = buckets - 1;
        for (std::size_t i = 0; i <= mask_; ++i) {
            if (!buckets_[i].used)
                continue;
            std::size_t b = mixStreamId(buckets_[i].key) & mask;
            while (table[b].used)
                b = (b + 1) & mask;
            table[b] = buckets_[i];
        }
        buckets_ = std::move(table);
        mask_ = mask;
    }

    /** Arena-backed: the bucket array grows to tens of MiB at
     *  service scale, exactly the huge-page regime, and the
     *  mmap backing's lazy zero pages mean the drain thread that
     *  probes the table is also the thread that faults it in
     *  (first-touch NUMA placement). */
    TableBuffer<Bucket> buckets_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SLOT_MAP_HH
