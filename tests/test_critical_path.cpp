/**
 * @file
 * Tests for critical-path attribution: synthetic record scenarios
 * pinning how each blocking edge claims cycles, and the exactness
 * property — every cycle of a request's [start, end) is assigned to
 * exactly one segment, so the per-segment sums equal the end-to-end
 * latency — checked across 500+ seeded full-system runs.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/cachecraft.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/flight_recorder.hpp"

namespace cachecraft::telemetry {
namespace {

FlightRecord
rec(RecordKind kind, std::uint64_t id, Cycle at, std::uint64_t addr = 0,
    std::uint32_t a = 0, std::uint16_t b = 0, std::uint8_t flags = 0)
{
    FlightRecord r;
    r.kind = static_cast<std::uint8_t>(kind);
    r.id = id;
    r.at = at;
    r.addr = addr;
    r.a = a;
    r.b = b;
    r.flags = flags;
    return r;
}

std::uint64_t
segCycles(const RequestPath &p, PathSegment s)
{
    return p.segmentCycles[static_cast<std::size_t>(s)];
}

std::uint64_t
segmentSum(const RequestPath &p)
{
    return std::accumulate(p.segmentCycles.begin(),
                           p.segmentCycles.end(), std::uint64_t{0});
}

TEST(CriticalPath, DataTxnSplitsIntoQueueBankRowFetch)
{
    // One data read: arrived at 100, issued at 120 (20 cycles queued),
    // 10 cycles bank/row, data at the controller at 160.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 100, 0x40),
        rec(RecordKind::kDramXfer, 1, 120, 0x40, /*a=*/20, /*b=*/10),
        rec(RecordKind::kDramDone, 1, 160, 0x40),
        rec(RecordKind::kComplete, 1, 200, 0x40),
    };
    const auto paths = attributeRequests(records);
    ASSERT_EQ(paths.size(), 1u);
    const RequestPath &p = paths[0];
    EXPECT_EQ(p.start, 100u);
    EXPECT_EQ(p.end, 200u);
    EXPECT_EQ(segCycles(p, PathSegment::kDataQueue), 20u);
    EXPECT_EQ(segCycles(p, PathSegment::kDataBankRow), 10u);
    EXPECT_EQ(segCycles(p, PathSegment::kDataFetch), 30u);
    EXPECT_EQ(segCycles(p, PathSegment::kOther), 40u);
    EXPECT_EQ(segmentSum(p), p.latency());
}

TEST(CriticalPath, MrcMissWaitsUntilTheFill)
{
    // Metadata probe misses at 110; the chunk becomes resident at 150
    // (the fill record carries the fetching request's id — any id).
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 100, 0x40),
        rec(RecordKind::kMrcProbe, 1, 110, 0x1000),
        rec(RecordKind::kMrcFill, 2, 150, 0x1000),
        rec(RecordKind::kComplete, 1, 200, 0x40),
    };
    const auto paths = attributeRequests(records);
    ASSERT_EQ(paths.size(), 1u);
    const RequestPath &p = paths[0];
    EXPECT_EQ(segCycles(p, PathSegment::kMrcWait), 40u);
    EXPECT_EQ(segCycles(p, PathSegment::kOther), 60u);
    EXPECT_EQ(segmentSum(p), p.latency());
}

TEST(CriticalPath, MrcMissWaitsForItsOwnSlicesFill)
{
    // MRC line addresses are channel-local, so slices 0 and 1 share
    // line 0x1000. Slice 0's earlier fill must not end slice 1's wait.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 100, 0x40),
        rec(RecordKind::kMrcProbe, 1, 110, 0x1000, 0, /*slice=*/1),
        rec(RecordKind::kMrcFill, 2, 130, 0x1000, 0, /*slice=*/0),
        rec(RecordKind::kMrcFill, 3, 170, 0x1000, 0, /*slice=*/1),
        rec(RecordKind::kComplete, 1, 200, 0x40),
    };
    const auto paths = attributeRequests(records);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(segCycles(paths[0], PathSegment::kMrcWait), 60u);
    EXPECT_EQ(segmentSum(paths[0]), paths[0].latency());
}

TEST(CriticalPath, MrcHitClaimsNothing)
{
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 100, 0x40),
        rec(RecordKind::kMrcProbe, 1, 110, 0x1000, 0, 0, kFlagHit),
        rec(RecordKind::kComplete, 1, 160, 0x40),
    };
    const auto paths = attributeRequests(records);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(segCycles(paths[0], PathSegment::kMrcWait), 0u);
    EXPECT_EQ(segCycles(paths[0], PathSegment::kOther), 60u);
}

TEST(CriticalPath, DataFetchOutranksMetadataWait)
{
    // Data transfer [0, 50) overlaps a metadata wait [0, 80): the
    // overlap counts as data (conservative metadata fraction), the
    // non-overlapped remainder counts as mrc_wait.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 0, 0x40),
        rec(RecordKind::kDramXfer, 1, 0, 0x40),
        rec(RecordKind::kDramDone, 1, 50, 0x40),
        rec(RecordKind::kMrcProbe, 1, 0, 0x2000),
        rec(RecordKind::kMrcFill, 2, 80, 0x2000),
        rec(RecordKind::kComplete, 1, 100, 0x40),
    };
    const auto bd = analyzeCriticalPath(records);
    ASSERT_EQ(bd.requests, 1u);
    EXPECT_EQ(bd.totalCycles[static_cast<std::size_t>(
                  PathSegment::kDataFetch)],
              50u);
    EXPECT_EQ(
        bd.totalCycles[static_cast<std::size_t>(PathSegment::kMrcWait)],
        30u);
    EXPECT_DOUBLE_EQ(bd.metadataFraction(), 0.30);
}

TEST(CriticalPath, PostedWritesNeverBlock)
{
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 0, 0x40),
        rec(RecordKind::kDramXfer, 1, 10, 0x40, 5, 5, kFlagWrite),
        rec(RecordKind::kDramDone, 1, 60, 0x40, 0, 0, kFlagWrite),
        rec(RecordKind::kComplete, 1, 40, 0x40),
    };
    const auto paths = attributeRequests(records);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(segCycles(paths[0], PathSegment::kOther),
              paths[0].latency());
}

TEST(CriticalPath, ClaimsClipToTheRequestWindow)
{
    // An L2 hit whose service interval extends past the completion
    // record (overlapped response path) must not over-attribute.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 1, 100, 0x40),
        rec(RecordKind::kL2Probe, 1, 180, 0x40, /*a=*/50, 0, kFlagHit),
        rec(RecordKind::kComplete, 1, 200, 0x40),
    };
    const auto paths = attributeRequests(records);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(segCycles(paths[0], PathSegment::kL2Service), 20u);
    EXPECT_EQ(segmentSum(paths[0]), 100u);
}

TEST(CriticalPath, IncompleteAndCoalesceOnlyIdsAreSeparated)
{
    const std::vector<FlightRecord> records{
        // id 1 completes; id 2 never does (overflow ate its tail);
        // id 3 is a coalesce-scoped warp-instruction id, not a
        // request lifecycle, so it is not "incomplete".
        rec(RecordKind::kRequestStart, 1, 0, 0x40),
        rec(RecordKind::kComplete, 1, 10, 0x40),
        rec(RecordKind::kRequestStart, 2, 5, 0x80),
        rec(RecordKind::kCoalesce, 3, 0, 0x0, 4),
    };
    const auto bd = analyzeCriticalPath(records);
    EXPECT_EQ(bd.requests, 1u);
    EXPECT_EQ(bd.incompleteRequests, 1u);
}

TEST(CriticalPath, SlowestSortedAndShapeBucketsCount)
{
    std::vector<FlightRecord> records;
    for (std::uint64_t id = 1; id <= 5; ++id) {
        records.push_back(rec(RecordKind::kRequestStart, id, 0, id));
        records.push_back(
            rec(RecordKind::kComplete, id, 10 * id, id));
    }
    const auto bd = analyzeCriticalPath(records, /*top_k=*/3);
    EXPECT_EQ(bd.requests, 5u);
    ASSERT_EQ(bd.slowest.size(), 3u);
    EXPECT_EQ(bd.slowest[0].latency(), 50u);
    EXPECT_EQ(bd.slowest[1].latency(), 40u);
    EXPECT_EQ(bd.slowest[2].latency(), 30u);
    ASSERT_EQ(bd.shapes.size(), 1u); // all pure-other paths
    EXPECT_EQ(bd.shapes[0].count, 5u);
    EXPECT_EQ(bd.shapes[0].max, 50u);
}

// --------------------------------------------------------------------
// Exactness property over real runs
// --------------------------------------------------------------------

/**
 * The acceptance contract: per-edge cycle attribution sums exactly to
 * each request's end-to-end latency, across 500+ seeds of real
 * GpuSystem runs covering every scheme and several access patterns.
 */
TEST(CriticalPathProperty, AttributionSumsExactlyAcross500Seeds)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    constexpr SchemeKind kSchemes[] = {
        SchemeKind::kNone,
        SchemeKind::kInlineNaive,
        SchemeKind::kEccCache,
        SchemeKind::kCacheCraft,
    };
    constexpr WorkloadKind kKinds[] = {
        WorkloadKind::kStreaming,
        WorkloadKind::kStrided,
        WorkloadKind::kRandomAccess,
        WorkloadKind::kReduction,
    };

    std::uint64_t totalPaths = 0;
    constexpr std::uint64_t kSeeds = 500;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SystemConfig cfg;
        cfg.scheme = kSchemes[seed % std::size(kSchemes)];
        cfg.numSms = 1 + static_cast<unsigned>(seed % 2);
        cfg.dram.numChannels = 1;
        cfg.dram.channelCapacity = 16ull << 20;
        cfg.l2.cache.sizeBytes = 8 * 1024;
        cfg.l2.cache.assoc = 4;
        cfg.mrc.sizeBytes = 1024;
        cfg.seed = seed;
        cfg.telemetry.flightRecorderEnabled = true;
        GpuSystem gpu(cfg);

        WorkloadParams params;
        params.footprintBytes = 16 * 1024;
        params.numWarps = 2;
        params.memInstsPerWarp = 4;
        params.seed = seed;
        gpu.run(makeWorkload(kKinds[(seed / 4) % std::size(kKinds)],
                             params));

        const telemetry::FlightRecorder *fr =
            gpu.telemetry().recorder();
        ASSERT_NE(fr, nullptr);
        ASSERT_EQ(fr->dropped(), 0u) << "ring too small for the test";

        const auto paths = attributeRequests(fr->snapshot());
        ASSERT_FALSE(paths.empty()) << "seed " << seed;
        for (const RequestPath &p : paths) {
            ASSERT_EQ(segmentSum(p), p.latency())
                << "seed " << seed << " id " << p.id;
            ASSERT_GE(p.end, p.start);
        }

        // The aggregate must telescope: breakdown totals are the sums
        // of the per-request attributions, nothing more or less.
        const auto bd = analyzeCriticalPath(fr->snapshot());
        std::uint64_t latencySum = 0;
        for (const RequestPath &p : paths)
            latencySum += p.latency();
        EXPECT_EQ(bd.totalLatency, latencySum) << "seed " << seed;
        std::uint64_t segTotal = 0;
        for (const std::uint64_t cycles : bd.totalCycles)
            segTotal += cycles;
        EXPECT_EQ(segTotal, bd.totalLatency) << "seed " << seed;
        totalPaths += paths.size();
    }
    // The property must have had teeth: many thousands of requests.
    EXPECT_GT(totalPaths, kSeeds);
}

} // namespace
} // namespace cachecraft::telemetry
