#include "faults/fault_injector.hpp"

#include "common/log.hpp"
#include "core/gpu_system.hpp"

namespace cachecraft {

const char *
toString(FaultPattern pattern)
{
    switch (pattern) {
      case FaultPattern::kSingleBit:
        return "single-bit";
      case FaultPattern::kDoubleBitAdjacent:
        return "double-bit-adjacent";
      case FaultPattern::kDoubleBitRandom:
        return "double-bit-random";
      case FaultPattern::kByteError:
        return "byte-error";
      case FaultPattern::kTwoByteError:
        return "two-byte-error";
      case FaultPattern::kEccChunkBit:
        return "ecc-chunk-bit";
    }
    return "unknown";
}

std::optional<FaultPattern>
parseFaultPattern(std::string_view name)
{
    for (FaultPattern pattern : allFaultPatterns()) {
        if (name == toString(pattern))
            return pattern;
    }
    return std::nullopt;
}

std::vector<FaultPattern>
allFaultPatterns()
{
    return {FaultPattern::kSingleBit,
            FaultPattern::kDoubleBitAdjacent,
            FaultPattern::kDoubleBitRandom,
            FaultPattern::kByteError,
            FaultPattern::kTwoByteError,
            FaultPattern::kEccChunkBit};
}

FaultPlan
FaultInjector::plan(FaultPattern pattern, Addr base, std::size_t size)
{
    FaultPlan fp;
    fp.pattern = pattern;
    const std::size_t sectors = size / kSectorBytes;
    fp.sectorAddr = base + rng_.below(sectors) * kSectorBytes;
    constexpr unsigned bits = kSectorBytes * 8;

    switch (pattern) {
      case FaultPattern::kSingleBit:
        fp.dataBits = {static_cast<unsigned>(rng_.below(bits))};
        break;
      case FaultPattern::kDoubleBitAdjacent: {
        const unsigned b = static_cast<unsigned>(rng_.below(bits - 1));
        fp.dataBits = {b, b + 1};
        break;
      }
      case FaultPattern::kDoubleBitRandom: {
        const unsigned b0 = static_cast<unsigned>(rng_.below(bits));
        unsigned b1 = b0;
        while (b1 == b0)
            b1 = static_cast<unsigned>(rng_.below(bits));
        fp.dataBits = {b0, b1};
        break;
      }
      case FaultPattern::kByteError: {
        const unsigned byte =
            static_cast<unsigned>(rng_.below(kSectorBytes));
        for (unsigned bit = 0; bit < 8; ++bit) {
            if (rng_.chance(0.5))
                fp.dataBits.push_back(byte * 8 + bit);
        }
        // A "byte error" flips at least one bit.
        if (fp.dataBits.empty())
            fp.dataBits.push_back(byte * 8 +
                                  static_cast<unsigned>(rng_.below(8)));
        break;
      }
      case FaultPattern::kTwoByteError: {
        const unsigned byte0 =
            static_cast<unsigned>(rng_.below(kSectorBytes));
        unsigned byte1 = byte0;
        while (byte1 == byte0)
            byte1 = static_cast<unsigned>(rng_.below(kSectorBytes));
        for (unsigned byte : {byte0, byte1}) {
            bool any = false;
            for (unsigned bit = 0; bit < 8; ++bit) {
                if (rng_.chance(0.5)) {
                    fp.dataBits.push_back(byte * 8 + bit);
                    any = true;
                }
            }
            if (!any)
                fp.dataBits.push_back(
                    byte * 8 + static_cast<unsigned>(rng_.below(8)));
        }
        break;
      }
      case FaultPattern::kEccChunkBit:
        fp.eccByte = static_cast<unsigned>(rng_.below(kEccChunkBytes));
        fp.eccBit = static_cast<unsigned>(rng_.below(8));
        break;
    }
    return fp;
}

void
FaultInjector::apply(GpuSystem &gpu, const FaultPlan &plan)
{
    if (plan.pattern == FaultPattern::kEccChunkBit) {
        gpu.injectEccFault(plan.sectorAddr, plan.eccByte, plan.eccBit);
        return;
    }
    for (unsigned bit : plan.dataBits)
        gpu.injectDataFault(plan.sectorAddr, bit);
}

} // namespace cachecraft
