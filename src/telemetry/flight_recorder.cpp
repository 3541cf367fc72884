#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <iterator>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/log.hpp"

namespace cachecraft::telemetry {

const char *
toString(RecordKind kind)
{
    static constexpr const char *kNames[] = {
        "coalesce",      "request_start",   "l1.hit",
        "l1.mshr_merge", "l1.mshr_blocked", "l1.mshr_admit",
        "xbar.hop",      "l2.queue",        "l2.probe",
        "l2.mshr_merge", "l2.mshr_blocked", "l2.mshr_admit",
        "mrc.probe",     "mrc.fill",        "dram.xfer",
        "dram.done",     "decode",          "complete"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(RecordKind::kCount));
    return kind < RecordKind::kCount
               ? kNames[static_cast<std::size_t>(kind)]
               : "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity, DrainFn drain)
    : ring_(capacity ? capacity : 1), drainFn_(std::move(drain))
{
}

void
FlightRecorder::drainLocked()
{
    const std::size_t n = std::min(undrained_, count_);
    const std::size_t first = (head_ + ring_.size() - n) % ring_.size();
    for (std::size_t i = 0; i < n; ++i)
        drainFn_(ring_[(first + i) % ring_.size()]);
    undrained_ = 0;
}

std::vector<FlightRecord>
FlightRecorder::snapshot() const
{
    std::vector<FlightRecord> out;
    out.reserve(count_);
    const std::size_t oldest =
        (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(oldest + i) % ring_.size()]);
    return out;
}

namespace {

/** Dump format v1 header. All fields little-endian native (the dump
 *  is a same-machine artifact, read back by cachecraft_trace). */
struct DumpHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t recordBytes;
    std::uint64_t count;
    std::uint64_t dropped;
    std::uint64_t lastCycle;
};

constexpr char kMagic[8] = {'C', 'C', 'F', 'L', 'T', 'R', 'E', 'C'};
constexpr std::uint32_t kDumpVersion = 1;

static_assert(sizeof(DumpHeader) == 40, "dump header layout");

bool
readFail(std::string *error, const char *message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

void
FlightRecorder::writeBinary(std::ostream &os) const
{
    DumpHeader h{};
    std::memcpy(h.magic, kMagic, sizeof kMagic);
    h.version = kDumpVersion;
    h.recordBytes = sizeof(FlightRecord);
    h.count = count_;
    h.dropped = dropped_;
    h.lastCycle = lastCycle_;
    os.write(reinterpret_cast<const char *>(&h), sizeof h);
    // The ring is written oldest-first in at most two contiguous runs,
    // so a full dump is two writes, not count_ small ones.
    const std::size_t oldest =
        (head_ + ring_.size() - count_) % ring_.size();
    const std::size_t tail = std::min(count_, ring_.size() - oldest);
    os.write(reinterpret_cast<const char *>(ring_.data() + oldest),
             static_cast<std::streamsize>(tail * sizeof(FlightRecord)));
    if (tail < count_)
        os.write(reinterpret_cast<const char *>(ring_.data()),
                 static_cast<std::streamsize>((count_ - tail) *
                                              sizeof(FlightRecord)));
}

bool
readFlightDump(std::istream &is, FlightDump *out, std::string *error)
{
    DumpHeader h{};
    is.read(reinterpret_cast<char *>(&h), sizeof h);
    if (!is)
        return readFail(error, "truncated flight dump header");
    if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0)
        return readFail(error, "not a flight dump (bad magic)");
    if (h.version != kDumpVersion)
        return readFail(error, "unsupported flight dump version");
    if (h.recordBytes != sizeof(FlightRecord))
        return readFail(error, "flight dump record size mismatch");

    // The header's count sizes nothing until the stream is known to
    // hold that many records: a corrupt count is a truncated dump, not
    // a huge allocation.
    const std::streamoff start = is.tellg();
    is.seekg(0, std::ios::end);
    const std::streamoff end = is.tellg();
    is.seekg(start);
    if (start < 0 || end < start || !is)
        return readFail(error, "flight dump stream is not seekable");
    if (h.count > static_cast<std::uint64_t>(end - start) /
                      sizeof(FlightRecord))
        return readFail(error, "truncated flight dump records");

    FlightDump dump;
    dump.dropped = h.dropped;
    dump.lastCycle = h.lastCycle;
    dump.records.resize(h.count);
    if (h.count > 0) {
        is.read(reinterpret_cast<char *>(dump.records.data()),
                static_cast<std::streamsize>(h.count *
                                             sizeof(FlightRecord)));
        if (!is)
            return readFail(error, "truncated flight dump records");
    }
    for (const FlightRecord &r : dump.records) {
        if (r.kind >= static_cast<std::uint8_t>(RecordKind::kCount))
            return readFail(error, "flight dump has unknown record kind");
        // The recorder's last cycle is the latest `at` it ever saw.
        if (r.at > dump.lastCycle)
            return readFail(error,
                            "flight dump record lies past the dump's last "
                            "cycle");
    }
    *out = std::move(dump);
    return true;
}

} // namespace cachecraft::telemetry
