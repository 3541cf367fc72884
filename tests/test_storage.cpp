/**
 * @file
 * Tests for the sparse DRAM backing store.
 */

#include <gtest/gtest.h>

#include "dram/storage.hpp"

namespace cachecraft {
namespace {

TEST(SparseMemory, UntouchedReadsFill)
{
    SparseMemory mem(0xCC);
    std::array<std::uint8_t, 16> buf{};
    mem.read(0x123456, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0xCC);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(SparseMemory, WriteReadRoundTrip)
{
    SparseMemory mem;
    std::array<std::uint8_t, 8> in{1, 2, 3, 4, 5, 6, 7, 8};
    mem.write(0x1000, in);
    std::array<std::uint8_t, 8> out{};
    mem.read(0x1000, out);
    EXPECT_EQ(in, out);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory mem;
    // Straddle a 4 KiB page boundary.
    const Addr addr = SparseMemory::kPageBytes - 4;
    std::array<std::uint8_t, 8> in{9, 8, 7, 6, 5, 4, 3, 2};
    mem.write(addr, in);
    std::array<std::uint8_t, 8> out{};
    mem.read(addr, out);
    EXPECT_EQ(in, out);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(SparseMemory, PartialPageReadMixesFillAndData)
{
    SparseMemory mem(0xAA);
    std::array<std::uint8_t, 2> in{0x11, 0x22};
    mem.write(SparseMemory::kPageBytes, in); // second page start
    std::array<std::uint8_t, 4> out{};
    mem.read(SparseMemory::kPageBytes - 2, out);
    EXPECT_EQ(out[0], 0xAA);
    EXPECT_EQ(out[1], 0xAA);
    EXPECT_EQ(out[2], 0x11);
    EXPECT_EQ(out[3], 0x22);
}

TEST(SparseMemory, FlipBit)
{
    SparseMemory mem;
    std::array<std::uint8_t, 1> in{0x00};
    mem.write(0x200, in);
    mem.flipBit(0x200, 3);
    std::array<std::uint8_t, 1> out{};
    mem.read(0x200, out);
    EXPECT_EQ(out[0], 0x08);
    mem.flipBit(0x200, 3);
    mem.read(0x200, out);
    EXPECT_EQ(out[0], 0x00);
}

TEST(SparseMemory, FlipBitOnUntouchedPageMaterializes)
{
    SparseMemory mem(0xFF);
    mem.flipBit(0x5000, 0);
    std::array<std::uint8_t, 1> out{};
    mem.read(0x5000, out);
    EXPECT_EQ(out[0], 0xFE);
}

TEST(SparseMemory, OverwriteUpdates)
{
    SparseMemory mem;
    std::array<std::uint8_t, 4> a{1, 1, 1, 1};
    std::array<std::uint8_t, 4> b{2, 2, 2, 2};
    mem.write(0x300, a);
    mem.write(0x300, b);
    std::array<std::uint8_t, 4> out{};
    mem.read(0x300, out);
    EXPECT_EQ(out, b);
}

TEST(SparseMemory, LargeSparseFootprintCheap)
{
    SparseMemory mem;
    // Touch 100 pages scattered over a 1 TiB range.
    for (Addr i = 0; i < 100; ++i) {
        std::array<std::uint8_t, 1> b{static_cast<std::uint8_t>(i)};
        mem.write(i * (1ull << 34), b);
    }
    EXPECT_EQ(mem.numPages(), 100u);
}

TEST(SparseMemory, UntouchedNeighboursOfWrittenPageReadFill)
{
    // A materialized page must not make its leaf's other pages (or the
    // next leaf) read as anything but the fill byte.
    SparseMemory mem(0x5A);
    std::array<std::uint8_t, 4> in{1, 2, 3, 4};
    mem.write(0x200000, in); // first page of the second 2 MiB leaf
    for (const Addr probe :
         {Addr{0}, Addr{0x1FF000}, Addr{0x201000}, Addr{0x3FF000},
          Addr{0x400000}, Addr{0x200004}}) {
        std::array<std::uint8_t, 4> out{};
        mem.read(probe, out);
        for (auto b : out)
            EXPECT_EQ(b, 0x5A) << std::hex << probe;
    }
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(SparseMemory, SparseWritesAcrossManyLeaves)
{
    // One page in each of many 2 MiB leaves, spread over the directly
    // indexed range; every page reads back its own byte.
    SparseMemory mem(0xEE);
    constexpr Addr kStride = (Addr{1} << 21) * 37 + 4096 * 5;
    for (Addr i = 0; i < 200; ++i) {
        std::array<std::uint8_t, 1> b{static_cast<std::uint8_t>(i)};
        mem.write(i * kStride + 17, b);
    }
    EXPECT_EQ(mem.numPages(), 200u);
    for (Addr i = 0; i < 200; ++i) {
        std::array<std::uint8_t, 2> out{};
        mem.read(i * kStride + 17, out);
        EXPECT_EQ(out[0], static_cast<std::uint8_t>(i));
        EXPECT_EQ(out[1], 0xEE);
    }
}

TEST(SparseMemory, HighAddressesRoundTrip)
{
    // Addresses past the directly indexed range, up to the last page
    // of the 64-bit space, including a write straddling two far pages
    // and a bit flip on an untouched far page.
    SparseMemory mem(0x11);
    const Addr top_page = ~Addr{0} - (SparseMemory::kPageBytes - 1);
    const Addr straddle = (Addr{1} << 48) - 3;
    std::array<std::uint8_t, 6> in{1, 2, 3, 4, 5, 6};
    mem.write(top_page, in);
    mem.write(straddle, in);
    mem.write(Addr{1} << 37, in); // first leaf past the directory
    mem.flipBit(Addr{1} << 60, 4);
    EXPECT_EQ(mem.numPages(), 5u);

    std::array<std::uint8_t, 6> out{};
    mem.read(top_page, out);
    EXPECT_EQ(out, in);
    mem.read(straddle, out);
    EXPECT_EQ(out, in);
    mem.read(Addr{1} << 37, out);
    EXPECT_EQ(out, in);
    std::array<std::uint8_t, 2> flip{};
    mem.read(Addr{1} << 60, flip);
    EXPECT_EQ(flip[0], 0x11 ^ 0x10);
    EXPECT_EQ(flip[1], 0x11);
    // Neighbours of far pages stay untouched.
    mem.read(top_page - SparseMemory::kPageBytes, out);
    for (auto b : out)
        EXPECT_EQ(b, 0x11);
    EXPECT_EQ(mem.numPages(), 5u);
}

} // namespace
} // namespace cachecraft
