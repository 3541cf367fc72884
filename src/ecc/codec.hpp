/**
 * @file
 * Common interface for the sector-granularity ECC codecs.
 *
 * Inline GPU memory protection dedicates a 12.5 % redundancy budget:
 * each 32 B data sector is covered by 4 bytes of check data, and the
 * eight sectors of a 256 B protection chunk share one 32 B ECC chunk.
 * All codecs in this library fit that budget:
 *
 *  - SecDedCodec:       four interleaved Hsiao (72,64) words;
 *  - ChipkillCodec:     RS(36,32) over GF(2^8), t = 2 symbols;
 *  - AftEccCodec:       alias-free *tagged* RS code (Implicit Memory
 *                       Tagging): one virtual tag symbol folded into
 *                       the parity, zero extra storage.
 */

#ifndef CACHECRAFT_ECC_CODEC_HPP
#define CACHECRAFT_ECC_CODEC_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace cachecraft::ecc {

/** Check bytes covering one 32 B data sector. */
inline constexpr std::size_t kCheckBytesPerSector = 4;

/** A 32 B sector payload. */
using SectorData = std::array<std::uint8_t, kSectorBytes>;

/** The 4 B of check data covering one sector. */
using SectorCheck = std::array<std::uint8_t, kCheckBytesPerSector>;

/** Memory tag carried by tagged codecs (lower bits used). */
using MemTag = std::uint8_t;

/** Outcome classification of a decode attempt. */
enum class DecodeStatus : std::uint8_t
{
    /** Syndrome clean: data and tag verified unchanged. */
    kClean,
    /** Errors found and corrected; corrected data returned. */
    kCorrected,
    /** Errors detected but beyond correction capability (DUE). */
    kUncorrectable,
    /** No data error, but the stored tag differs from the expected
     *  tag: a memory-safety violation (tagged codecs only). */
    kTagMismatch,
};

/** Human-readable status name. */
const char *toString(DecodeStatus status);

/** Result of decoding one sector. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::kClean;
    /** Data after correction (valid for kClean / kCorrected). */
    SectorData data{};
    /** Number of corrected bit or symbol errors. */
    unsigned correctedUnits = 0;
};

/** A whole 256 B protection chunk (8 sectors, sector-major). */
using ChunkData = std::array<std::uint8_t, kChunkBytes>;

/** The 32 B ECC chunk covering it (4 B check per sector, in order). */
using ChunkCheck = std::array<std::uint8_t, kEccChunkBytes>;

/**
 * Result of decoding one whole protection chunk: exactly what eight
 * independent per-sector decode() calls would have produced, batched.
 */
struct ChunkDecodeResult
{
    std::array<DecodeStatus, kSectorsPerChunk> status{};
    std::array<std::uint8_t, kSectorsPerChunk> correctedUnits{};
    /** Per-sector post-decode bytes (raw stored bytes for sectors
     *  reported kUncorrectable, matching DecodeResult semantics). */
    ChunkData data{};

    /** True iff every sector decoded kClean. */
    bool
    allClean() const
    {
        for (DecodeStatus s : status) {
            if (s != DecodeStatus::kClean)
                return false;
        }
        return true;
    }
};

/**
 * Abstract sector codec. Implementations must be stateless and
 * thread-compatible: all methods are const.
 */
class SectorCodec
{
  public:
    virtual ~SectorCodec() = default;

    /** Codec name for reports. */
    virtual std::string name() const = 0;

    /** True if the codec embeds a memory tag (IMT-style). */
    virtual bool supportsTags() const = 0;

    /** Bits of tag the codec can embed (0 for untagged codecs). */
    virtual unsigned tagBits() const = 0;

    /**
     * Compute the check bytes for @p data under tag @p tag.
     * Untagged codecs ignore the tag.
     */
    virtual SectorCheck encode(const SectorData &data, MemTag tag) const = 0;

    /**
     * Verify/correct @p data against @p check, expecting tag @p tag.
     *
     * @param data  possibly corrupted sector payload as read from DRAM
     * @param check possibly corrupted check bytes as read from DRAM
     * @param tag   the tag the *accessor* believes the location holds
     */
    virtual DecodeResult decode(const SectorData &data,
                                const SectorCheck &check,
                                MemTag tag) const = 0;

    /**
     * @{ Whole-chunk batch interface. Every chunk carries a single
     * tag (tags are region-granular, far coarser than a chunk). The
     * base-class defaults loop over the eight sectors; the production
     * codecs override them with laned kernels. Contract: the chunk
     * calls are observably identical to eight sector calls — byte-for-
     * byte equal check/data output and equal statuses (property-tested
     * across dispatch tiers in test_codec_kernels.cpp).
     */

    /** Encode all eight sectors of @p data into @p check. */
    virtual void encodeChunk(const ChunkData &data, MemTag tag,
                             ChunkCheck &check) const;

    /** Verify/correct a whole stored chunk. */
    virtual ChunkDecodeResult decodeChunk(const ChunkData &data,
                                          const ChunkCheck &check,
                                          MemTag tag) const;

    /**
     * Syndrome-only fast path: true iff decode() would return kClean
     * for this sector (in which case the decoded data equals @p data
     * unchanged). Never corrects — the caller falls back to decode()
     * on false.
     */
    virtual bool verifySectorClean(const SectorData &data,
                                   const SectorCheck &check,
                                   MemTag tag) const;

    /** Syndrome-only fast path over a whole chunk: true iff every
     *  sector would decode kClean. */
    virtual bool verifyChunkClean(const ChunkData &data,
                                  const ChunkCheck &check,
                                  MemTag tag) const;
    /** @} */
};

/** Copy of the @p s-th sector payload of a chunk. */
inline SectorData
chunkSectorData(const ChunkData &data, std::size_t s)
{
    SectorData out;
    std::copy_n(data.begin() + s * kSectorBytes, kSectorBytes,
                out.begin());
    return out;
}

/** Copy of the @p s-th sector's check field of an ECC chunk. */
inline SectorCheck
chunkSectorCheck(const ChunkCheck &check, std::size_t s)
{
    SectorCheck out;
    std::copy_n(check.begin() + s * kCheckBytesPerSector,
                kCheckBytesPerSector, out.begin());
    return out;
}

/** Which codec a configuration selects. */
enum class CodecKind : std::uint8_t
{
    kSecDed,
    kSecBadaec,
    kChipkill,
    kAftEcc,
};

/** All codec kinds in report order. */
std::vector<CodecKind> allCodecs();

/** Human-readable codec-kind name. */
const char *toString(CodecKind kind);

/** The codec named @p name (its toString), if any. */
std::optional<CodecKind> parseCodec(std::string_view name);

/** Factory: build the codec selected by @p kind. */
std::unique_ptr<SectorCodec> makeCodec(CodecKind kind);

} // namespace cachecraft::ecc

#endif // CACHECRAFT_ECC_CODEC_HPP
