/**
 * @file
 * Tests for the lifecycle view: hand-built flight-record lists pin
 * the exact span list each pairing rule produces, and the Chrome
 * export keeps its "lifecycle" trace_event format.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "telemetry/lifecycle.hpp"

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

/** A span as a comparable tuple-ish string: "name id begin end arg". */
std::vector<std::string>
render(const std::vector<LifecycleSpan> &spans)
{
    std::vector<std::string> out;
    for (const LifecycleSpan &s : spans) {
        std::ostringstream os;
        os << toString(s.stage) << ' ' << s.id << ' ' << s.begin << ' '
           << s.end << (isInstant(s.stage) ? " i" : "");
        if (s.argKey)
            os << ' ' << s.argKey << '=' << s.argVal;
        out.push_back(os.str());
    }
    return out;
}

using Spans = std::vector<std::string>;

TEST(Lifecycle, CoalesceAndDecodeAreInstants)
{
    const std::vector<FlightRecord> records{
        rec(RecordKind::kCoalesce, 7, 10, 0x40, /*a=*/3),
        rec(RecordKind::kDecode, 9, 50, 0x40, 0, 0, /*status=*/1),
    };
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"coalesce 7 10 10 i sectors=3",
                     "decode 9 50 50 i status=1"}));
}

TEST(Lifecycle, MemInstRunsToTheLastSectorComplete)
{
    // Warp instruction 7 coalesces into two sectors (ids 8 and 9,
    // linked through kRequestStart.a); it ends when the later one
    // completes, whatever the completion order.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kCoalesce, 7, 10, 0x40, /*a=*/2),
        rec(RecordKind::kRequestStart, 8, 10, 0x40, /*a=*/7),
        rec(RecordKind::kRequestStart, 9, 10, 0x60, /*a=*/7),
        rec(RecordKind::kComplete, 9, 80),
        rec(RecordKind::kComplete, 8, 120),
    };
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"coalesce 7 10 10 i sectors=2", "mem_inst 7 10 120"}));
}

TEST(Lifecycle, MemInstNeedsItsCoalesceRecord)
{
    // The ring dropped the opening record: no span, no crash.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kRequestStart, 8, 10, 0x40, /*a=*/7),
        rec(RecordKind::kComplete, 8, 120),
    };
    EXPECT_TRUE(lifecycleSpans(records).empty());
}

TEST(Lifecycle, L2ReadRunsFromQueueToResponseHop)
{
    // The request hop (no response flag) neither opens nor closes it.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kXbarHop, 5, 90, 0, 0, 0, 0),
        rec(RecordKind::kL2Queue, 5, 100, 0x40, /*a=*/2),
        rec(RecordKind::kL2Probe, 5, 102, 0x40),
        rec(RecordKind::kXbarHop, 5, 240, 0, 0, 0, kFlagResponse),
    };
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"l2.read 5 100 240"}));
}

TEST(Lifecycle, MrcProbePairsWithTheNextFillOfItsSliceAndLine)
{
    // Slices 0 and 1 share MRC line 0x1000 (lines are channel-local).
    // A hit is a zero-length span; a miss ends at the next fill of
    // its own slice's line, never another slice's earlier fill.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kMrcProbe, 1, 100, 0x1000, 0, /*slice=*/0,
            kFlagHit),
        rec(RecordKind::kMrcProbe, 2, 110, 0x1000, 0, /*slice=*/1),
        rec(RecordKind::kMrcProbe, 3, 115, 0x1000, 0, /*slice=*/1),
        rec(RecordKind::kMrcFill, 4, 130, 0x1000, 0, /*slice=*/0),
        rec(RecordKind::kMrcFill, 2, 170, 0x2000, 0, /*slice=*/1),
        rec(RecordKind::kMrcFill, 2, 190, 0x1000, 0, /*slice=*/1),
        rec(RecordKind::kMrcFill, 5, 250, 0x1000, 0, /*slice=*/1),
    };
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"mrc.probe 1 100 100 resident=1",
                     "mrc.probe 2 110 190 resident=0",
                     "mrc.probe 3 115 190 resident=0"}));
}

TEST(Lifecycle, DramReadsGetServiceAndStageSpans)
{
    // Queue arrival is kDramXfer.at - a. Row outcome 2 (conflict)
    // rides in the flag bits.
    const std::uint8_t conflict = 2u << kFlagRowShift;
    const std::vector<FlightRecord> records{
        rec(RecordKind::kDramXfer, 1, 120, 0x40, /*a=*/20, /*b=*/10,
            conflict),
        rec(RecordKind::kDramDone, 1, 160, 0x40, 0, 0, conflict),
        rec(RecordKind::kDramXfer, 1, 130, 0x80, /*a=*/5, 0, kFlagEcc),
        rec(RecordKind::kDramDone, 1, 150, 0x80, 0, 0, kFlagEcc),
    };
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"dram.data.read 1 100 160",
                     "dram.service 1 100 160 row_outcome=2",
                     "dram.ecc.read 1 125 150",
                     "dram.service 1 125 150 row_outcome=0"}));
}

TEST(Lifecycle, PostedWritesGetOnlyTheServiceSpan)
{
    const std::vector<FlightRecord> records{
        rec(RecordKind::kDramXfer, 3, 40, 0x40, /*a=*/4, 0, kFlagWrite),
        rec(RecordKind::kDramDone, 3, 60, 0x40, 0, 0, kFlagWrite),
        rec(RecordKind::kDramXfer, 4, 50, 0x80, 0, 0,
            kFlagWrite | kFlagEcc),
        rec(RecordKind::kDramDone, 4, 70, 0x80, 0, 0,
            kFlagWrite | kFlagEcc),
    };
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"dram.service 3 36 60 row_outcome=0",
                     "dram.service 4 50 70 row_outcome=0"}));
}

TEST(Lifecycle, StreamingConsumptionMatchesBatch)
{
    // Fed one record at a time, the builder completes each span at
    // its closing record; batch only adds the final sort.
    const std::vector<FlightRecord> records{
        rec(RecordKind::kL2Queue, 5, 100, 0x40),
        rec(RecordKind::kMrcProbe, 5, 104, 0x1000),
        rec(RecordKind::kMrcFill, 6, 150, 0x1000),
        rec(RecordKind::kXbarHop, 5, 200, 0, 0, 0, kFlagResponse),
    };
    LifecycleBuilder builder;
    std::vector<LifecycleSpan> streamed;
    std::vector<std::size_t> after;
    for (const FlightRecord &r : records) {
        builder.consume(r, streamed);
        after.push_back(streamed.size());
    }
    EXPECT_EQ(after, (std::vector<std::size_t>{0, 0, 1, 2}));
    EXPECT_EQ(render(streamed),
              (Spans{"mrc.probe 5 104 150 resident=0",
                     "l2.read 5 100 200"}));
    EXPECT_EQ(render(lifecycleSpans(records)),
              (Spans{"l2.read 5 100 200",
                     "mrc.probe 5 104 150 resident=0"}));
}

TEST(Lifecycle, ChromeExportKeepsTheLifecycleFormat)
{
    const std::vector<FlightRecord> records{
        rec(RecordKind::kCoalesce, 7, 10, 0x40, /*a=*/1),
        rec(RecordKind::kL2Queue, 8, 20, 0x40),
        rec(RecordKind::kXbarHop, 8, 60, 0, 0, 0, kFlagResponse),
    };
    std::ostringstream os;
    writeLifecycleJson(os, records, /*dropped=*/3);
    std::string err;
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("otherData")->find("dropped_events")->asNumber(),
              3.0);
    const auto &events = doc->find("traceEvents")->asArray();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].find("name")->asString(), "coalesce");
    EXPECT_EQ(events[0].find("ph")->asString(), "i");
    EXPECT_EQ(events[0].find("args")->find("sectors")->asNumber(), 1.0);
    EXPECT_EQ(events[1].find("name")->asString(), "l2.read");
    EXPECT_EQ(events[1].find("ph")->asString(), "b");
    EXPECT_EQ(events[1].find("ts")->asNumber(), 20.0);
    EXPECT_EQ(events[1].find("id")->asString(), "8");
    EXPECT_EQ(events[2].find("ph")->asString(), "e");
    EXPECT_EQ(events[2].find("ts")->asNumber(), 60.0);
    for (const JsonValue &ev : events)
        EXPECT_EQ(ev.find("cat")->asString(), "lifecycle");
}

} // namespace
} // namespace cachecraft::telemetry
