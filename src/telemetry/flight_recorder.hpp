/**
 * @file
 * Binary flight recorder: fixed-size structured records of the causal
 * edges of every memory request, captured in a ring with no JSON (or
 * any allocation) on the hot path.
 *
 * Each instrumented component pushes one 32-byte FlightRecord per
 * causal edge — coalesce, L1 probe/MSHR, crossbar hop, L2 probe/MSHR,
 * MRC metadata probe/fill, DRAM transfer, decode, completion — keyed
 * by the per-sector request id the telemetry hub allocates. The
 * records of one run form a DAG that the critical-path analyzer
 * (critical_path.hpp) replays offline; cachecraft_trace reads the
 * binary dump and emits human- and diff-friendly artifacts.
 *
 * The lifecycle view (lifecycle.hpp) derives the `--trace-json` spans
 * and the per-stage latency histograms from the same records.
 *
 * Gating: the whole record path compiles to nothing under
 * CACHECRAFT_TRACE_DISABLED, and at runtime hooks go through
 * `telemetry->recorder()` which returns nullptr unless
 * TelemetryOptions::flightRecorderEnabled (or traceEnabled) is set, so
 * a disabled recorder costs one predicted branch per hook (same
 * contract as Telemetry::profiler()).
 */

#ifndef CACHECRAFT_TELEMETRY_FLIGHT_RECORDER_HPP
#define CACHECRAFT_TELEMETRY_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cachecraft::telemetry {

/** Causal edge kinds a FlightRecord can describe. */
enum class RecordKind : std::uint8_t
{
    kCoalesce,      //!< warp lanes -> sectors; a = sector count
    kRequestStart,  //!< per-sector request issued; a = coalesce id low bits
    kL1Hit,         //!< L1 sector hit; a = hit latency
    kL1MshrMerge,   //!< merged into an in-flight L1 miss
    kL1MshrBlocked, //!< L1 MSHRs full, request parked
    kL1MshrAdmit,   //!< parked request re-admitted
    kXbarHop,       //!< crossbar hop; a = backpressure wait, b = latency
    kL2Queue,       //!< L2 service-slot wait; a = slot - arrival
    kL2Probe,       //!< L2 tag probe; flag kFlagHit, a = hit latency
    kL2MshrMerge,   //!< merged into an in-flight L2 miss
    kL2MshrBlocked, //!< L2 MSHRs full, request parked
    kL2MshrAdmit,   //!< parked L2 request re-admitted
    kMrcProbe,      //!< MRC metadata probe; flag kFlagHit, b = slice
    kMrcFill,       //!< MRC chunk became resident (addr = chunk line,
                    //!< b = slice)
    kDramXfer,      //!< DRAM txn issued; a = queue wait, b = bank/row wait
    kDramDone,      //!< DRAM txn data available at the controller
    kDecode,        //!< codec decode fired; flags = DecodeStatus
    kComplete,      //!< request completed back at the SM
    kCount,
};

/** Stable name of a record kind (dump printing, JSON keys). */
const char *toString(RecordKind kind);

/** FlightRecord::flags bits (kind-dependent, see RecordKind docs). */
inline constexpr std::uint8_t kFlagHit = 1u << 0;
inline constexpr std::uint8_t kFlagResponse = 1u << 0; //!< kXbarHop
inline constexpr std::uint8_t kFlagWrite = 1u << 1;
inline constexpr std::uint8_t kFlagEcc = 1u << 2;
/** kDramXfer/kDramDone: RowOutcome in bits 3..4 (hit/closed/conflict). */
inline constexpr std::uint8_t kFlagRowShift = 3;
inline constexpr std::uint8_t kFlagRowMask = 3u << kFlagRowShift;

/**
 * One causal edge, exactly 32 bytes so a ring of a million records is
 * 32 MiB and a dump is a flat memcpy-able array.
 */
struct FlightRecord
{
    std::uint64_t id = 0;   //!< request id (0 = not request-scoped)
    std::uint64_t at = 0;   //!< cycle the edge occurred
    std::uint64_t addr = 0; //!< sector / physical / MRC-line address
    std::uint32_t a = 0;    //!< kind-specific: waits, counts, latency
    std::uint16_t b = 0;    //!< kind-specific: secondary wait (clamped)
    std::uint8_t kind = static_cast<std::uint8_t>(RecordKind::kCount);
    std::uint8_t flags = 0;
};

static_assert(sizeof(FlightRecord) == 32,
              "FlightRecord must stay 32 bytes (dump format v1)");

/**
 * kMrcProbe / kMrcFill: the MRC line a record names, unique across
 * slices. The line address is channel-local (every slice has the same
 * lines), so the slice index in `b` is part of the key.
 */
inline std::uint64_t
mrcLineKey(const FlightRecord &r)
{
    return (std::uint64_t{r.b} << 48) | r.addr;
}

/** Largest accepted FlightRecorder capacity: 2^26 records (2 GiB). */
inline constexpr std::size_t kMaxFlightCapacity = std::size_t{1} << 26;

/**
 * Fixed-capacity ring of FlightRecords; oldest-drop overflow, counted,
 * so overflow surfaces as a RunStats warning.
 *
 * An optional drain callback sees every record exactly once, in record
 * order: at each drain() call and, so that wrapping loses it nothing,
 * just before the ring overwrites a record it has not seen yet.
 */
class FlightRecorder
{
  public:
    using DrainFn = std::function<void(const FlightRecord &)>;

    explicit FlightRecorder(std::size_t capacity, DrainFn drain = {});

    /** Push one causal edge. Hot path: no allocation, no branches
     *  beyond the ring wrap (plus an uncontended lock — sharded
     *  domains record concurrently; the retained count and dropped
     *  total stay deterministic because the recorded multiset is,
     *  while record *order* — hence the binary dump — is only
     *  deterministic at --shards 1). */
    void
    record(RecordKind kind, std::uint64_t id, Cycle at,
           std::uint64_t addr = 0, std::uint32_t a = 0,
           std::uint16_t b = 0, std::uint8_t flags = 0)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (count_ == ring_.size()) {
            if (drainFn_ && undrained_ >= count_)
                drainLocked();
            ++dropped_;
        } else {
            ++count_;
        }
        FlightRecord &r = ring_[head_];
        r.id = id;
        r.at = at;
        r.addr = addr;
        r.a = a;
        r.b = b;
        r.kind = static_cast<std::uint8_t>(kind);
        r.flags = flags;
        head_ = (head_ + 1) % ring_.size();
        ++undrained_;
        if (at > lastCycle_)
            lastCycle_ = at;
    }

    /** Feed the records added since the last drain to the callback. */
    void
    drain()
    {
        if (!drainFn_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        drainLocked();
    }

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    /** Records discarded because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }
    Cycle lastCycle() const { return lastCycle_; }

    /** Retained records, oldest first. */
    std::vector<FlightRecord> snapshot() const;

    /**
     * Write the retained records as a binary dump: a fixed header
     * (magic, version, record size, count, dropped, last cycle)
     * followed by the raw records, oldest first.
     */
    void writeBinary(std::ostream &os) const;

  private:
    void drainLocked();

    std::mutex mutex_;
    std::vector<FlightRecord> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
    Cycle lastCycle_ = 0;
    DrainFn drainFn_;
    /** Newest records the drain callback has not seen (>= count_ means
     *  every retained one). */
    std::size_t undrained_ = 0;
};

/** A parsed binary dump (see FlightRecorder::writeBinary). */
struct FlightDump
{
    std::uint64_t dropped = 0;
    Cycle lastCycle = 0;
    std::vector<FlightRecord> records;
};

/**
 * Parse a dump produced by writeBinary(). Returns false (diagnostic
 * in @p error, may be null) on truncated or mismatched input.
 */
bool readFlightDump(std::istream &is, FlightDump *out,
                    std::string *error = nullptr);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_FLIGHT_RECORDER_HPP
