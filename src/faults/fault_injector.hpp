/**
 * @file
 * Fault-injection campaigns over simulated DRAM.
 *
 * Models the GPU-DRAM error patterns characterized in the beam-test
 * literature (single bits, adjacent double bits, whole-byte/"pin"
 * errors, chip-granularity symbol errors, and multi-sector row
 * bursts) and drives them through a GpuSystem's storage so the real
 * codecs see real flipped bits.
 */

#ifndef CACHECRAFT_FAULTS_FAULT_INJECTOR_HPP
#define CACHECRAFT_FAULTS_FAULT_INJECTOR_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace cachecraft {

class GpuSystem;

/** Hardware fault patterns observed in GPU DRAM. */
enum class FaultPattern : std::uint8_t
{
    kSingleBit,      //!< one flipped cell
    kDoubleBitAdjacent, //!< two adjacent bits in one byte lane
    kDoubleBitRandom,   //!< two random bits within a sector
    kByteError,      //!< one whole byte (pin/IO-lane failure)
    kTwoByteError,   //!< two random symbols (chip-granularity)
    kEccChunkBit,    //!< single bit inside the ECC chunk itself
};

/** Human-readable pattern name. */
const char *toString(FaultPattern pattern);

/** The pattern named @p name (its toString), if any. */
std::optional<FaultPattern> parseFaultPattern(std::string_view name);

/** All patterns, in report order. */
std::vector<FaultPattern> allFaultPatterns();

/** One planned fault (addresses are logical data addresses). */
struct FaultPlan
{
    FaultPattern pattern = FaultPattern::kSingleBit;
    Addr sectorAddr = 0;
    /** Bit indices within the 32 B sector (data patterns). */
    std::vector<unsigned> dataBits;
    /** (byte, bit) within the ECC chunk (kEccChunkBit). */
    unsigned eccByte = 0;
    unsigned eccBit = 0;
};

/**
 * Deterministic fault-plan generator and applier.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

    /**
     * Plan one fault of @p pattern at a uniformly chosen sector
     * within [base, base+size).
     */
    FaultPlan plan(FaultPattern pattern, Addr base, std::size_t size);

    /** Apply @p plan to @p gpu's DRAM storage. */
    static void apply(GpuSystem &gpu, const FaultPlan &plan);

  private:
    Xoshiro256 rng_;
};

} // namespace cachecraft

#endif // CACHECRAFT_FAULTS_FAULT_INJECTOR_HPP
