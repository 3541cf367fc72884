/**
 * @file
 * Cross-cutting integration tests: memory tagging end-to-end (IMT
 * through the full system), layout/scheme/codec matrix consistency,
 * and the traffic identities that define each scheme.
 */

#include <gtest/gtest.h>

#include "core/cachecraft.hpp"

namespace cachecraft {
namespace {

SystemConfig
tinyConfig(SchemeKind scheme, ecc::CodecKind codec)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.codec = codec;
    cfg.numSms = 2;
    cfg.dram.numChannels = 2;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    return cfg;
}

/** A hand-built trace: one warp reading a tagged region, optionally
 *  with a wrong-tag access (modeling a dangling/corrupt pointer). */
KernelTrace
taggedTrace(bool include_violation)
{
    KernelTrace trace;
    trace.name = "tagged";
    trace.regions = {{0, 64 * 1024, 0x5A}};
    std::vector<WarpInst> warp;
    for (int i = 0; i < 16; ++i) {
        WarpInst inst;
        inst.isMem = true;
        for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
            inst.lanes.push_back(
                static_cast<Addr>(i) * kLineBytes + lane * 4);
        warp.push_back(inst);
    }
    if (include_violation) {
        WarpInst bad;
        bad.isMem = true;
        bad.tagOverride = 0x11; // stale pointer: wrong tag
        // A fresh line, so the access must go to memory and be
        // tag-checked rather than served from a cache.
        for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
            bad.lanes.push_back(32 * kLineBytes + lane * 4);
        warp.push_back(bad);
    }
    trace.warps.push_back(std::move(warp));
    return trace;
}

class TaggedSchemes : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(TaggedSchemes, CorrectTagAccessesAreClean)
{
    GpuSystem gpu(tinyConfig(GetParam(), ecc::CodecKind::kAftEcc));
    const auto rs = gpu.run(taggedTrace(false));
    EXPECT_EQ(rs.decodeTagMismatch, 0u);
    EXPECT_EQ(rs.decodeUncorrectable, 0u);
}

TEST_P(TaggedSchemes, WrongTagAccessDetected)
{
    GpuSystem gpu(tinyConfig(GetParam(), ecc::CodecKind::kAftEcc));
    const auto rs = gpu.run(taggedTrace(true));
    EXPECT_GE(rs.decodeTagMismatch, 1u)
        << toString(GetParam())
        << " failed to detect the memory-safety violation";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TaggedSchemes,
    ::testing::Values(SchemeKind::kInlineNaive, SchemeKind::kEccCache,
                      SchemeKind::kCacheCraft),
    [](const auto &param_info) {
        std::string s = toString(param_info.param);
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

TEST(Integration, UntaggedCodecIgnoresTagOverride)
{
    // With SEC-DED (no tag support) the same violation trace must NOT
    // be flagged: demonstrates what IMT adds.
    GpuSystem gpu(
        tinyConfig(SchemeKind::kCacheCraft, ecc::CodecKind::kSecDed));
    const auto rs = gpu.run(taggedTrace(true));
    EXPECT_EQ(rs.decodeTagMismatch, 0u);
}

TEST(Integration, CodecMatrixAllCleanOnFaultFreeRun)
{
    WorkloadParams p;
    p.footprintBytes = 256 * 1024;
    p.numWarps = 8;
    for (auto codec : {ecc::CodecKind::kSecDed, ecc::CodecKind::kChipkill,
                       ecc::CodecKind::kAftEcc}) {
        for (auto scheme :
             {SchemeKind::kInlineNaive, SchemeKind::kEccCache,
              SchemeKind::kCacheCraft}) {
            GpuSystem gpu(tinyConfig(scheme, codec));
            const auto rs =
                gpu.run(makeWorkload(WorkloadKind::kStencil2D, p));
            EXPECT_EQ(rs.decodeUncorrectable, 0u)
                << toString(scheme) << "/" << toString(codec);
            EXPECT_EQ(gpu.auditMemory().silentCorruptions, 0u)
                << toString(scheme) << "/" << toString(codec);
        }
    }
}

TEST(Integration, TrafficOrderingAcrossSchemes)
{
    WorkloadParams p;
    p.footprintBytes = 512 * 1024;
    p.numWarps = 16;
    const auto trace = makeWorkload(WorkloadKind::kStreaming, p);
    std::map<SchemeKind, std::uint64_t> txns;
    for (auto scheme :
         {SchemeKind::kNone, SchemeKind::kInlineNaive,
          SchemeKind::kEccCache, SchemeKind::kCacheCraft}) {
        SystemConfig cfg = tinyConfig(scheme, ecc::CodecKind::kSecDed);
        // The L2 must be smaller than the footprint so dirty
        // writebacks reach DRAM — that is where the schemes differ.
        cfg.l2.cache.sizeBytes = 64 * 1024;
        GpuSystem gpu(cfg);
        txns[scheme] = gpu.run(trace).dramTotalTxns;
    }
    EXPECT_LT(txns[SchemeKind::kNone], txns[SchemeKind::kCacheCraft]);
    EXPECT_LT(txns[SchemeKind::kCacheCraft],
              txns[SchemeKind::kEccCache]);
    EXPECT_LT(txns[SchemeKind::kEccCache],
              txns[SchemeKind::kInlineNaive]);
}

TEST(Integration, CoLocatedLayoutImprovesRandomReadRowLocality)
{
    WorkloadParams p;
    p.footprintBytes = 1 * 1024 * 1024;
    p.numWarps = 16;
    p.memInstsPerWarp = 32;
    const auto trace = makeWorkload(WorkloadKind::kRandomAccess, p);

    auto rowhit = [&](bool colocated) {
        SystemConfig cfg =
            tinyConfig(SchemeKind::kCacheCraft, ecc::CodecKind::kSecDed);
        cfg.coLocatedLayout = colocated;
        GpuSystem gpu(cfg);
        return gpu.run(trace).rowHitRate;
    };
    EXPECT_GT(rowhit(true), rowhit(false) + 0.1)
        << "co-location should pair random reads with their metadata";
}

TEST(Integration, MrcSizeZeroDegradesTowardNaive)
{
    // A 1-line MRC still dedups concurrent fetches but caches almost
    // nothing: traffic should approach the naive scheme's.
    WorkloadParams p;
    p.footprintBytes = 512 * 1024;
    p.numWarps = 8;
    p.memInstsPerWarp = 32;
    const auto trace = makeWorkload(WorkloadKind::kRandomAccess, p);

    SystemConfig tiny =
        tinyConfig(SchemeKind::kCacheCraft, ecc::CodecKind::kSecDed);
    tiny.mrc.sizeBytes = 64;
    tiny.mrc.assoc = 2;
    GpuSystem small_gpu(tiny);
    const auto small_rs = small_gpu.run(trace);

    SystemConfig naive_cfg =
        tinyConfig(SchemeKind::kInlineNaive, ecc::CodecKind::kSecDed);
    GpuSystem naive_gpu(naive_cfg);
    const auto naive_rs = naive_gpu.run(trace);

    // Within 25 % of naive's metadata read traffic.
    EXPECT_GT(small_rs.dramEccReads,
              naive_rs.dramEccReads * 3 / 4);
}

TEST(Integration, RunStatsAllMapPopulated)
{
    GpuSystem gpu(tinyConfig(SchemeKind::kCacheCraft,
                             ecc::CodecKind::kSecDed));
    WorkloadParams p;
    p.footprintBytes = 128 * 1024;
    p.numWarps = 4;
    const auto rs = gpu.run(makeWorkload(WorkloadKind::kStreaming, p));
    EXPECT_GT(rs.all.size(), 50u);
    EXPECT_TRUE(rs.all.count("dram.ch0.reads"));
    EXPECT_TRUE(rs.all.count("protect.slice0.mrc_hits"));
    EXPECT_TRUE(rs.all.count("sm0.insts"));
}

} // namespace
} // namespace cachecraft
