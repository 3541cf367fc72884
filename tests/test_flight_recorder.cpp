/**
 * @file
 * Tests for the binary flight recorder: ring mechanics (oldest-drop
 * overflow with exact accounting, the drain callback seeing every
 * record once), snapshot ordering, and the binary
 * dump format's round-trip and rejection behavior.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.hpp"

namespace cachecraft::telemetry {
namespace {

/** A clean three-record dump, as bytes. */
std::string
cleanDump()
{
    FlightRecorder fr(8);
    fr.record(RecordKind::kRequestStart, 1, 100, 0x40);
    fr.record(RecordKind::kDramXfer, 1, 150, 0x40, 20, 4, kFlagEcc);
    fr.record(RecordKind::kComplete, 1, 400, 0x40);
    std::ostringstream out(std::ios::binary);
    fr.writeBinary(out);
    return out.str();
}

/** Overwrite the little-endian u64 at byte @p offset of @p bytes. */
void
patchU64(std::string &bytes, std::size_t offset, std::uint64_t value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof value);
}

TEST(FlightRecorder, StartsEmpty)
{
    FlightRecorder fr(16);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.capacity(), 16u);
    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_EQ(fr.lastCycle(), 0u);
    EXPECT_TRUE(fr.snapshot().empty());
}

TEST(FlightRecorder, RecordsFieldsVerbatim)
{
    FlightRecorder fr(4);
    fr.record(RecordKind::kDramXfer, 42, 1000, 0xdeadbeef, 7, 3,
              kFlagEcc | kFlagWrite);
    ASSERT_EQ(fr.size(), 1u);
    const FlightRecord r = fr.snapshot()[0];
    EXPECT_EQ(static_cast<RecordKind>(r.kind), RecordKind::kDramXfer);
    EXPECT_EQ(r.id, 42u);
    EXPECT_EQ(r.at, 1000u);
    EXPECT_EQ(r.addr, 0xdeadbeefu);
    EXPECT_EQ(r.a, 7u);
    EXPECT_EQ(r.b, 3u);
    EXPECT_EQ(r.flags, kFlagEcc | kFlagWrite);
}

TEST(FlightRecorder, OverflowDropsOldestAndCounts)
{
    FlightRecorder fr(4);
    for (std::uint64_t i = 1; i <= 10; ++i)
        fr.record(RecordKind::kRequestStart, i, i * 10);

    // Exact accounting: 10 pushed, 4 retained, 6 dropped.
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.dropped(), 6u);

    // The survivors are the newest four, oldest first.
    const auto records = fr.snapshot();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(records[i].id, 7u + i);
        EXPECT_EQ(records[i].at, (7u + i) * 10);
    }
}

TEST(FlightRecorder, DrainSeesEveryRecordOnceThroughWraps)
{
    std::vector<std::uint64_t> seen;
    FlightRecorder fr(4, [&seen](const FlightRecord &r) {
        seen.push_back(r.id);
    });
    for (std::uint64_t i = 1; i <= 3; ++i)
        fr.record(RecordKind::kRequestStart, i, i * 10);
    // Below capacity nothing drops, and nothing drains until asked.
    EXPECT_EQ(fr.size(), 3u);
    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_TRUE(seen.empty());
    fr.drain();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));

    // Wrapping the ring twice over: each record reaches the callback
    // before it is overwritten, once, in record order.
    for (std::uint64_t i = 4; i <= 12; ++i)
        fr.record(RecordKind::kRequestStart, i, i * 10);
    fr.drain();
    fr.drain();
    std::vector<std::uint64_t> all(12);
    std::iota(all.begin(), all.end(), std::uint64_t{1});
    EXPECT_EQ(seen, all);
    EXPECT_EQ(fr.dropped(), 8u);
    EXPECT_EQ(fr.size(), 4u);
}

TEST(FlightRecorder, LastCycleTracksMaximum)
{
    FlightRecorder fr(2);
    fr.record(RecordKind::kRequestStart, 1, 500);
    fr.record(RecordKind::kComplete, 1, 700);
    // Out-of-order timestamps (two SMs interleave) never regress it,
    // and overflow does not forget the maximum.
    fr.record(RecordKind::kRequestStart, 2, 600);
    EXPECT_EQ(fr.lastCycle(), 700u);
}

TEST(FlightRecorder, KindNamesAreStableAndUnique)
{
    std::set<std::string> names;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(RecordKind::kCount); ++k) {
        const char *name = toString(static_cast<RecordKind>(k));
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate kind name: " << name;
    }
}

TEST(FlightDump, BinaryRoundTrip)
{
    std::stringstream buf(cleanDump(), std::ios::in | std::ios::binary);
    FlightDump dump;
    std::string error;
    ASSERT_TRUE(readFlightDump(buf, &dump, &error)) << error;
    EXPECT_EQ(dump.dropped, 0u);
    EXPECT_EQ(dump.lastCycle, 400u);
    ASSERT_EQ(dump.records.size(), 3u);
    EXPECT_EQ(dump.records[0].id, 1u);
    EXPECT_EQ(dump.records[1].a, 20u);
    EXPECT_EQ(dump.records[1].b, 4u);
    EXPECT_EQ(dump.records[1].flags, kFlagEcc);
    EXPECT_EQ(static_cast<RecordKind>(dump.records[2].kind),
              RecordKind::kComplete);
}

TEST(FlightDump, OverflowSurvivesRoundTrip)
{
    FlightRecorder fr(4);
    for (std::uint64_t i = 1; i <= 9; ++i)
        fr.record(RecordKind::kRequestStart, i, i);

    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    fr.writeBinary(buf);

    FlightDump dump;
    std::string error;
    ASSERT_TRUE(readFlightDump(buf, &dump, &error)) << error;
    EXPECT_EQ(dump.dropped, 5u);
    ASSERT_EQ(dump.records.size(), 4u);
    EXPECT_EQ(dump.records.front().id, 6u);
    EXPECT_EQ(dump.records.back().id, 9u);
}

TEST(FlightDump, RejectsBadMagic)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    buf << "NOTADUMPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(buf, &dump, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FlightDump, RejectsTruncatedHeader)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    buf << "CCFL"; // four bytes of a 40-byte header
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(buf, &dump, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FlightDump, RejectsTruncatedRecords)
{
    FlightRecorder fr(8);
    fr.record(RecordKind::kRequestStart, 1, 100);
    fr.record(RecordKind::kComplete, 1, 200);

    std::ostringstream full(std::ios::binary);
    fr.writeBinary(full);
    const std::string bytes = full.str();

    // Chop mid-record: the reader must fail, not return short data.
    std::stringstream cut(bytes.substr(0, bytes.size() - 7),
                          std::ios::in | std::ios::binary);
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(cut, &dump, &error));
    EXPECT_FALSE(error.empty());
}

// The header's record count (bytes 16..23) is checked against the
// bytes present before anything is allocated: a count of 2^58 is a
// truncated dump, not a length_error.
TEST(FlightDump, RejectsCountBeyondStream)
{
    std::string bytes = cleanDump();
    patchU64(bytes, 16, std::uint64_t{1} << 58);
    std::stringstream buf(bytes, std::ios::in | std::ios::binary);
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(buf, &dump, &error));
    EXPECT_EQ(error, "truncated flight dump records");
    EXPECT_TRUE(dump.records.empty());
}

// A record whose cycle (bytes 8..15 of the record, after the 40-byte
// header) lies past the header's last_cycle is corrupt.
TEST(FlightDump, RejectsRecordPastLastCycle)
{
    std::string bytes = cleanDump();
    patchU64(bytes, 40 + sizeof(FlightRecord) + 8,
             (std::uint64_t{0x40} << 56) | 150);
    std::stringstream buf(bytes, std::ios::in | std::ios::binary);
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(buf, &dump, &error));
    EXPECT_NE(error.find("past the dump's last cycle"), std::string::npos)
        << error;
}

} // namespace
} // namespace cachecraft::telemetry
