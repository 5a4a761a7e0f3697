/**
 * @file
 * Table arena contract tests: the backing-selection policy table, the
 * alignment and zeroing guarantees of both allocation paths (including
 * the huge-page mapping's 2 MiB alignment and its graceful fallback),
 * and TableBuffer's vector-like surface — growth preserving contents
 * with zeroed tails, shrink re-zeroing, assign, and move semantics.
 * SanitizerBuildsNeverMap pins what the sanitizer jobs rely on: their
 * builds route every table through plain allocation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/table_arena.hh"

namespace
{

using namespace vpred;
namespace ta = vpred::table_arena;

/** Mirrors table_arena.cc's sanitizerBuild(). */
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

TEST(TableArena, PlanBackingPolicyTable)
{
    // Zero bytes never allocates; below the huge-page granule every
    // build allocates plainly.
    EXPECT_EQ(ta::planBackingFor(0), ArenaBacking::None);
    EXPECT_EQ(ta::planBackingFor(1), ArenaBacking::New);
    EXPECT_EQ(ta::planBackingFor(ta::kHugeThresholdBytes - 1),
              ArenaBacking::New);
}

TEST(TableArena, SanitizerBuildsNeverMap)
{
    // A mapping sits outside ASan's redzones and TSan's shadow, so a
    // sanitizer build must plan New for every size; any other build
    // maps from the huge-page granule up.
    const ArenaBacking big =
            sanitizerBuild() ? ArenaBacking::New : ArenaBacking::Mmap;
    EXPECT_EQ(ta::planBackingFor(ta::kHugeThresholdBytes), big);
    EXPECT_EQ(ta::planBackingFor(std::size_t{1} << 30), big);

    TableBuffer<std::uint32_t> buf(
            ta::kHugeThresholdBytes / sizeof(std::uint32_t) + 1);
    if (sanitizerBuild())
        EXPECT_EQ(buf.backing(), ArenaBacking::New);
    else  // a refused mapping degrades to New
        EXPECT_NE(buf.backing(), ArenaBacking::None);
}

TEST(TableArena, PlainAllocationIsAlignedAndZeroed)
{
    constexpr std::size_t kBytes = 4096;
    ArenaBacking backing = ArenaBacking::Mmap;
    void* p = ta::allocate(kBytes, backing);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(backing, ArenaBacking::New);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % ta::kAlignBytes, 0u);
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < kBytes; ++i)
        ASSERT_EQ(bytes[i], 0u) << "byte " << i;
    ta::deallocate(p, kBytes, backing);
}

TEST(TableArena, MappedAllocationIsHugeAlignedAndZeroed)
{
    // A size that is not a granule multiple still yields a
    // granule-aligned window (or plain allocation in a sanitizer
    // build or if the kernel refuses — the reported backing tells
    // which).
    constexpr std::size_t kBytes = 3 * 1024 * 1024;  // crosses a granule
    ArenaBacking backing = ArenaBacking::None;
    void* p = ta::allocate(kBytes, backing);
    ASSERT_NE(p, nullptr);
    if (backing == ArenaBacking::Mmap) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p)
                          % ta::kHugeThresholdBytes,
                  0u);
    } else {
        EXPECT_EQ(backing, ArenaBacking::New);
    }
    auto* bytes = static_cast<unsigned char*>(p);
    for (std::size_t i = 0; i < kBytes; i += 997)
        ASSERT_EQ(bytes[i], 0u) << "byte " << i;
    // The buffer must be writable through the trimmed window's edges.
    bytes[0] = 0xAB;
    bytes[kBytes - 1] = 0xCD;
    EXPECT_EQ(bytes[0], 0xAB);
    EXPECT_EQ(bytes[kBytes - 1], 0xCD);
    ta::deallocate(p, kBytes, backing);
}

TEST(TableBuffer, StartsEmptyAndZeroConstructs)
{
    TableBuffer<std::uint32_t> buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.backing(), ArenaBacking::None);

    TableBuffer<std::uint32_t> sized(64);
    EXPECT_EQ(sized.size(), 64u);
    EXPECT_NE(sized.backing(), ArenaBacking::None);
    for (std::uint32_t v : sized)
        ASSERT_EQ(v, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(sized.data())
                      % ta::kAlignBytes,
              0u);
}

TEST(TableBuffer, GrowthPreservesContentsAndZeroesTail)
{
    TableBuffer<std::uint32_t> buf(8);
    for (std::size_t i = 0; i < 8; ++i)
        buf[i] = static_cast<std::uint32_t>(i + 1);
    buf.resize(1000);  // forces reallocation well past capacity
    ASSERT_EQ(buf.size(), 1000u);
    for (std::size_t i = 0; i < 8; ++i)
        ASSERT_EQ(buf[i], i + 1) << "slot " << i;
    for (std::size_t i = 8; i < 1000; ++i)
        ASSERT_EQ(buf[i], 0u) << "slot " << i;
}

TEST(TableBuffer, ShrinkThenRegrowSeesPowerOnState)
{
    TableBuffer<std::uint32_t> buf(32);
    for (auto& v : buf)
        v = 0xDEADBEEF;
    buf.resize(4);
    EXPECT_EQ(buf.size(), 4u);
    buf.resize(32);  // regrow within the retained capacity
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_EQ(buf[i], 0xDEADBEEFu) << "slot " << i;
    for (std::size_t i = 4; i < 32; ++i)
        ASSERT_EQ(buf[i], 0u) << "slot " << i;
}

TEST(TableBuffer, AssignDiscardsContents)
{
    TableBuffer<std::uint64_t> buf(16);
    for (auto& v : buf)
        v = ~std::uint64_t{0};
    buf.assign(24);
    ASSERT_EQ(buf.size(), 24u);
    for (std::uint64_t v : buf)
        ASSERT_EQ(v, 0u);
}

TEST(TableBuffer, FillZeroResetsLiveSlots)
{
    TableBuffer<std::uint32_t> buf(10);
    for (auto& v : buf)
        v = 7;
    buf.fillZero();
    for (std::uint32_t v : buf)
        ASSERT_EQ(v, 0u);
}

TEST(TableBuffer, MoveTransfersOwnership)
{
    TableBuffer<std::uint32_t> a(16);
    a[3] = 99;
    const std::uint32_t* data = a.data();
    const ArenaBacking backing = a.backing();

    TableBuffer<std::uint32_t> b(std::move(a));
    EXPECT_EQ(b.data(), data);
    EXPECT_EQ(b.backing(), backing);
    EXPECT_EQ(b[3], 99u);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): pinned
    EXPECT_EQ(a.backing(), ArenaBacking::None);

    TableBuffer<std::uint32_t> c(4);
    c = std::move(b);
    EXPECT_EQ(c.data(), data);
    EXPECT_EQ(c[3], 99u);
    EXPECT_TRUE(b.empty());
}

TEST(TableBuffer, HugeBufferRoundTrip)
{
    // Big enough that non-sanitizer builds take the mapping path end
    // to end through TableBuffer.
    const std::size_t n = ta::kHugeThresholdBytes / sizeof(std::uint32_t)
                          + 13;
    TableBuffer<std::uint32_t> buf(n);
    ASSERT_EQ(buf.size(), n);
    buf[0] = 1;
    buf[n - 1] = 2;
    EXPECT_EQ(buf[0], 1u);
    EXPECT_EQ(buf[n - 1], 2u);
    for (std::size_t i = 1; i < n - 1; i += 4099)
        ASSERT_EQ(buf[i], 0u) << "slot " << i;
}

} // namespace
