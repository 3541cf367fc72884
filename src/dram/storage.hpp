/**
 * @file
 * Sparse backing store for simulated DRAM contents.
 *
 * The protection path operates on *real bytes*: data sectors and ECC
 * chunks are actually stored, fault injection actually flips bits,
 * and decode actually runs over what is read back. A sparse page map
 * keeps multi-GiB simulated capacities cheap to host.
 *
 * The map is a two-level page directory: a directory indexed by
 * address bits [21, 37) points at lazily allocated leaves of 512 page
 * pointers (2 MiB each), so a lookup is two dependent loads and no
 * hashing. Leaves beyond the directory's 128 GiB reach (never used by
 * a simulated device, but legal) live in an ordered map.
 */

#ifndef CACHECRAFT_DRAM_STORAGE_HPP
#define CACHECRAFT_DRAM_STORAGE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace cachecraft {

/**
 * Byte-addressable sparse memory. Unwritten locations read as a
 * deterministic background pattern (zero by default) so runs are
 * reproducible regardless of access order.
 */
class SparseMemory
{
  public:
    /** @param fill background byte for untouched memory. */
    explicit SparseMemory(std::uint8_t fill = 0) : fill_(fill) {}

    /** Read @p out.size() bytes starting at @p addr. */
    void read(Addr addr, std::span<std::uint8_t> out) const;

    /** Write @p in.size() bytes starting at @p addr. */
    void write(Addr addr, std::span<const std::uint8_t> in);

    /** XOR a single bit (fault injection hook). */
    void flipBit(Addr addr, unsigned bit_in_byte);

    /** Number of materialized pages (footprint metric). */
    std::size_t numPages() const { return numPages_; }

    /** Page granularity of the sparse map. */
    static constexpr std::size_t kPageBytes = 4096;

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    static constexpr unsigned kPageBits = 12;
    static constexpr unsigned kLeafBits = 9; //!< pages per leaf: 512
    static constexpr std::size_t kLeafPages = std::size_t{1} << kLeafBits;
    /** Leaf indices below this are directly indexed (128 GiB). */
    static constexpr Addr kDirectLeaves = Addr{1} << 16;
    static_assert(kPageBytes == std::size_t{1} << kPageBits);

    using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

    /** The materialized page holding @p addr, or null. */
    const Page *findPage(Addr addr) const;

    /** Get a page for writing, materializing it on first touch. */
    Page &pageForWrite(Addr addr);

    std::uint8_t fill_;
    std::size_t numPages_ = 0;
    std::vector<std::unique_ptr<Leaf>> directory_; //!< grown on demand
    std::map<Addr, std::unique_ptr<Leaf>> farLeaves_;
};

} // namespace cachecraft

#endif // CACHECRAFT_DRAM_STORAGE_HPP
