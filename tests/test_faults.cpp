/**
 * @file
 * Fault-injection tests: the reliability contract of each codec must
 * hold end-to-end through the full system — faults are real bit flips
 * in simulated DRAM, observed through real decodes during execution
 * and post-run audits.
 */

#include <gtest/gtest.h>

#include "core/cachecraft.hpp"
#include "faults/fault_injector.hpp"

namespace cachecraft {
namespace {

SystemConfig
faultConfig(SchemeKind scheme, ecc::CodecKind codec)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.codec = codec;
    cfg.numSms = 2;
    cfg.dram.numChannels = 2;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    return cfg;
}

KernelTrace
smallTrace()
{
    WorkloadParams p;
    p.footprintBytes = 128 * 1024;
    p.numWarps = 8;
    return makeWorkload(WorkloadKind::kStreaming, p);
}

TEST(FaultInjector, PlansAreDeterministic)
{
    FaultInjector a(7);
    FaultInjector b(7);
    for (auto pattern : allFaultPatterns()) {
        const auto pa = a.plan(pattern, 0, 1 << 20);
        const auto pb = b.plan(pattern, 0, 1 << 20);
        EXPECT_EQ(pa.sectorAddr, pb.sectorAddr);
        EXPECT_EQ(pa.dataBits, pb.dataBits);
    }
}

TEST(FaultInjector, PatternsHaveExpectedShape)
{
    FaultInjector inj(3);
    for (int i = 0; i < 100; ++i) {
        const auto single =
            inj.plan(FaultPattern::kSingleBit, 0, 1 << 20);
        EXPECT_EQ(single.dataBits.size(), 1u);

        const auto adj =
            inj.plan(FaultPattern::kDoubleBitAdjacent, 0, 1 << 20);
        ASSERT_EQ(adj.dataBits.size(), 2u);
        EXPECT_EQ(adj.dataBits[1], adj.dataBits[0] + 1);

        const auto byte = inj.plan(FaultPattern::kByteError, 0, 1 << 20);
        EXPECT_GE(byte.dataBits.size(), 1u);
        for (unsigned bit : byte.dataBits)
            EXPECT_EQ(bit / 8, byte.dataBits[0] / 8);

        const auto two =
            inj.plan(FaultPattern::kTwoByteError, 0, 1 << 20);
        std::set<unsigned> bytes;
        for (unsigned bit : two.dataBits)
            bytes.insert(bit / 8);
        EXPECT_EQ(bytes.size(), 2u);
    }
}

TEST(Faults, SecDedCorrectsSingleBitDuringRun)
{
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(SchemeKind::kInlineNaive,
                              ecc::CodecKind::kSecDed));
    gpu.initialize(trace);
    gpu.injectDataFault(/* logical= */ 0, /* bit= */ 17);
    const auto rs = gpu.run(trace);
    EXPECT_GE(rs.decodeCorrected, 1u);
    EXPECT_EQ(rs.decodeUncorrectable, 0u);
    EXPECT_EQ(gpu.auditMemory().silentCorruptions, 0u);
}

TEST(Faults, SecDedDetectsDoubleBitInWord)
{
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(SchemeKind::kInlineNaive,
                              ecc::CodecKind::kSecDed));
    gpu.initialize(trace);
    gpu.injectDataFault(0, 0);
    gpu.injectDataFault(0, 5); // same 64-bit word
    const auto rs = gpu.run(trace);
    EXPECT_GE(rs.decodeUncorrectable, 1u);
}

TEST(Faults, ChipkillCorrectsWholeByte)
{
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(SchemeKind::kInlineNaive,
                              ecc::CodecKind::kChipkill));
    gpu.initialize(trace);
    for (unsigned bit = 0; bit < 8; ++bit)
        gpu.injectDataFault(0, 8 * 7 + bit); // all of byte 7
    const auto rs = gpu.run(trace);
    EXPECT_GE(rs.decodeCorrected, 1u);
    EXPECT_EQ(rs.decodeUncorrectable, 0u);
    EXPECT_EQ(gpu.auditMemory().silentCorruptions, 0u);
}

TEST(Faults, SecDedCannotCorrectByteError)
{
    // The motivating contrast for symbol codes: a full-byte error
    // inside one 64-bit word overwhelms SEC-DED.
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(SchemeKind::kInlineNaive,
                              ecc::CodecKind::kSecDed));
    gpu.initialize(trace);
    for (unsigned bit = 0; bit < 8; ++bit)
        gpu.injectDataFault(0, 8 * 7 + bit);
    const auto rs = gpu.run(trace);
    EXPECT_GE(rs.decodeUncorrectable, 1u);
}

TEST(Faults, EccRegionFaultCorrectedThroughSystem)
{
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(SchemeKind::kInlineNaive,
                              ecc::CodecKind::kChipkill));
    gpu.initialize(trace);
    gpu.injectEccFault(0, 2, 4);
    const auto rs = gpu.run(trace);
    EXPECT_GE(rs.decodeCorrected, 1u);
    EXPECT_EQ(gpu.auditMemory().silentCorruptions, 0u);
}

/** The key CacheCraft reliability claim: reconstruction preserves the
 *  code's guarantees exactly — same outcomes as the naive scheme. */
class ReconstructionPreservesGuarantees
    : public ::testing::TestWithParam<FaultPattern>
{
};

TEST_P(ReconstructionPreservesGuarantees, CacheCraftMatchesNaive)
{
    const FaultPattern pattern = GetParam();
    auto trace = smallTrace();

    auto outcome = [&](SchemeKind scheme) {
        GpuSystem gpu(faultConfig(scheme, ecc::CodecKind::kChipkill));
        gpu.initialize(trace);
        FaultInjector inj(1234);
        const auto plan = inj.plan(
            pattern, trace.regions[0].base, trace.regions[0].size);
        FaultInjector::apply(gpu, plan);
        const auto rs = gpu.run(trace);
        const auto audit = gpu.auditMemory();
        struct Out
        {
            bool corrected;
            bool due;
            std::uint64_t sdc;
        };
        return Out{rs.decodeCorrected > 0, rs.decodeUncorrectable > 0,
                   audit.silentCorruptions};
    };

    const auto naive = outcome(SchemeKind::kInlineNaive);
    const auto craft = outcome(SchemeKind::kCacheCraft);
    EXPECT_EQ(naive.corrected, craft.corrected)
        << toString(pattern);
    EXPECT_EQ(naive.due, craft.due) << toString(pattern);
    EXPECT_EQ(naive.sdc, craft.sdc) << toString(pattern);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, ReconstructionPreservesGuarantees,
    ::testing::ValuesIn(allFaultPatterns()),
    [](const auto &param_info) {
        std::string s = toString(param_info.param);
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

TEST(Faults, ManyRandomSingleBitsAllHandledByChipkill)
{
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(SchemeKind::kCacheCraft,
                              ecc::CodecKind::kChipkill));
    gpu.initialize(trace);
    FaultInjector inj(77);
    for (int i = 0; i < 50; ++i) {
        const auto plan =
            inj.plan(FaultPattern::kSingleBit, trace.regions[0].base,
                     trace.regions[0].size);
        FaultInjector::apply(gpu, plan);
    }
    gpu.run(trace);
    const auto audit = gpu.auditMemory();
    EXPECT_EQ(audit.silentCorruptions, 0u);
    EXPECT_EQ(audit.uncorrectable, 0u);
}

// --------------------------------------------------------------------
// Fault-soak matrix: every pattern x every scheme, with the per-codec
// reliability contract pinned explicitly.
// --------------------------------------------------------------------

/** What a codec promises against one injected pattern. */
enum class Guarantee
{
    kCorrected, //!< corrected: no DUE, no SDC
    kNoSdc,     //!< detected at worst: may DUE, never silent
    kNone,      //!< beyond the code: anything goes
};

const char *
toString(Guarantee g)
{
    switch (g) {
      case Guarantee::kCorrected: return "corrected";
      case Guarantee::kNoSdc: return "no-sdc";
      case Guarantee::kNone: return "none";
    }
    return "?";
}

/**
 * The pinned contract. Chipkill (RS, t=2 symbols) corrects every
 * modeled pattern. SEC-DED operates on plain 64-bit words (no bit
 * interleave): single bits and single ECC-region bits are corrected;
 * an adjacent pair lands inside one word, which DED detects but
 * cannot correct; a whole-byte error is an even-weight 8-bit flip in
 * one word that can alias past SEC-DED entirely, so — like two random
 * bytes — it carries no guarantee. Random double bits split across
 * words at worst (two correctable singles) or share one (detected).
 */
Guarantee
contractFor(ecc::CodecKind codec, FaultPattern pattern)
{
    if (codec == ecc::CodecKind::kChipkill)
        return Guarantee::kCorrected;
    switch (pattern) {
      case FaultPattern::kSingleBit:
      case FaultPattern::kEccChunkBit:
        return Guarantee::kCorrected;
      case FaultPattern::kDoubleBitAdjacent:
      case FaultPattern::kDoubleBitRandom:
        return Guarantee::kNoSdc;
      case FaultPattern::kByteError:
      case FaultPattern::kTwoByteError:
        return Guarantee::kNone;
    }
    return Guarantee::kNone;
}

using SoakParam = std::tuple<SchemeKind, ecc::CodecKind, FaultPattern>;

class FaultSoakMatrix : public ::testing::TestWithParam<SoakParam>
{
};

TEST_P(FaultSoakMatrix, ContractHoldsThroughFullSystem)
{
    const auto [scheme, codec, pattern] = GetParam();
    auto trace = smallTrace();
    GpuSystem gpu(faultConfig(scheme, codec));
    gpu.initialize(trace);
    FaultInjector inj(4242);
    const auto plan = inj.plan(pattern, trace.regions[0].base,
                               trace.regions[0].size);
    FaultInjector::apply(gpu, plan);
    gpu.run(trace);
    const auto audit = gpu.auditMemory();

    // The end-of-run audit decodes every region sector, so the
    // injected fault is judged even if the run overwrote or never
    // touched it (overwrites clear it — the contract bounds are
    // one-sided by design).
    const Guarantee want = contractFor(codec, pattern);
    SCOPED_TRACE(std::string(toString(scheme)) + " / " +
                 ecc::toString(codec) + " / " + toString(pattern) +
                 " -> " + toString(want));
    switch (want) {
      case Guarantee::kCorrected:
        EXPECT_EQ(audit.uncorrectable, 0u);
        EXPECT_EQ(audit.silentCorruptions, 0u);
        break;
      case Guarantee::kNoSdc:
        EXPECT_EQ(audit.silentCorruptions, 0u);
        break;
      case Guarantee::kNone:
        break; // must only survive the run (no crash, audit completes)
    }
}

std::string
soakName(const ::testing::TestParamInfo<SoakParam> &info)
{
    std::string s = std::string(toString(std::get<0>(info.param))) + "_" +
                    ecc::toString(std::get<1>(info.param)) + "_" +
                    cachecraft::toString(std::get<2>(info.param));
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    ProtectedSchemes, FaultSoakMatrix,
    ::testing::Combine(
        ::testing::Values(SchemeKind::kInlineNaive, SchemeKind::kEccCache,
                          SchemeKind::kCacheCraft),
        ::testing::Values(ecc::CodecKind::kSecDed,
                          ecc::CodecKind::kChipkill),
        ::testing::ValuesIn(allFaultPatterns())),
    soakName);

TEST(FaultSoak, UnprotectedSchemeNeverReportsErrors)
{
    // no-ecc has no detection machinery: every pattern must flow
    // through without a single DUE or reported correction — faults
    // surface (if at all) only as silent corruption in the audit.
    for (auto pattern : allFaultPatterns()) {
        if (pattern == FaultPattern::kEccChunkBit)
            continue; // no-ecc has no ECC region to corrupt
        SCOPED_TRACE(toString(pattern));
        auto trace = smallTrace();
        GpuSystem gpu(faultConfig(SchemeKind::kNone,
                                  ecc::CodecKind::kSecDed));
        gpu.initialize(trace);
        FaultInjector inj(4242);
        const auto plan = inj.plan(pattern, trace.regions[0].base,
                                   trace.regions[0].size);
        FaultInjector::apply(gpu, plan);
        const auto rs = gpu.run(trace);
        EXPECT_EQ(rs.decodeCorrected, 0u);
        EXPECT_EQ(rs.decodeUncorrectable, 0u);
        EXPECT_EQ(gpu.auditMemory().uncorrectable, 0u);
    }
}

TEST(FaultPatternNames, AllDistinct)
{
    std::set<std::string> names;
    for (auto pattern : allFaultPatterns())
        EXPECT_TRUE(names.insert(toString(pattern)).second);
    EXPECT_EQ(names.size(), 6u);
}

} // namespace
} // namespace cachecraft
