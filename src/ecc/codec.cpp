#include "ecc/codec.hpp"

#include "common/log.hpp"
#include "ecc/aft_ecc.hpp"
#include "ecc/reed_solomon.hpp"
#include "ecc/sec_badaec.hpp"
#include "ecc/secded.hpp"

namespace cachecraft::ecc {

void
SectorCodec::encodeChunk(const ChunkData &data, MemTag tag,
                         ChunkCheck &check) const
{
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        const SectorCheck sc = encode(chunkSectorData(data, s), tag);
        std::copy(sc.begin(), sc.end(),
                  check.begin() + s * kCheckBytesPerSector);
    }
}

ChunkDecodeResult
SectorCodec::decodeChunk(const ChunkData &data, const ChunkCheck &check,
                         MemTag tag) const
{
    ChunkDecodeResult res;
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        const DecodeResult dr = decode(chunkSectorData(data, s),
                                       chunkSectorCheck(check, s), tag);
        res.status[s] = dr.status;
        res.correctedUnits[s] =
            static_cast<std::uint8_t>(dr.correctedUnits);
        std::copy(dr.data.begin(), dr.data.end(),
                  res.data.begin() + s * kSectorBytes);
    }
    return res;
}

bool
SectorCodec::verifySectorClean(const SectorData &data,
                               const SectorCheck &check, MemTag tag) const
{
    return decode(data, check, tag).status == DecodeStatus::kClean;
}

bool
SectorCodec::verifyChunkClean(const ChunkData &data,
                              const ChunkCheck &check, MemTag tag) const
{
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        if (!verifySectorClean(chunkSectorData(data, s),
                               chunkSectorCheck(check, s), tag))
            return false;
    }
    return true;
}

const char *
toString(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::kClean:
        return "clean";
      case DecodeStatus::kCorrected:
        return "corrected";
      case DecodeStatus::kUncorrectable:
        return "uncorrectable";
      case DecodeStatus::kTagMismatch:
        return "tag-mismatch";
    }
    return "unknown";
}

const char *
toString(CodecKind kind)
{
    switch (kind) {
      case CodecKind::kSecDed:
        return "secded";
      case CodecKind::kSecBadaec:
        return "sec-badaec";
      case CodecKind::kChipkill:
        return "chipkill";
      case CodecKind::kAftEcc:
        return "aft-ecc";
    }
    return "unknown";
}

std::optional<CodecKind>
parseCodec(std::string_view name)
{
    for (CodecKind kind : allCodecs()) {
        if (name == toString(kind))
            return kind;
    }
    return std::nullopt;
}

std::vector<CodecKind>
allCodecs()
{
    return {CodecKind::kSecDed, CodecKind::kSecBadaec,
            CodecKind::kChipkill, CodecKind::kAftEcc};
}

std::unique_ptr<SectorCodec>
makeCodec(CodecKind kind)
{
    switch (kind) {
      case CodecKind::kSecDed:
        return std::make_unique<SecDedCodec>();
      case CodecKind::kSecBadaec:
        return std::make_unique<SecBadaecCodec>();
      case CodecKind::kChipkill:
        return std::make_unique<ChipkillCodec>();
      case CodecKind::kAftEcc:
        return std::make_unique<AftEccCodec>();
    }
    panic("unknown codec kind");
}

} // namespace cachecraft::ecc
