/**
 * @file
 * The memory-request lifecycle view: spans derived from flight records.
 *
 * The flight recorder is the one per-request recording; this module
 * defines how its records pair into the named lifecycle spans, and
 * that one definition (LifecycleBuilder) is used two ways. Streaming:
 * the Telemetry hub feeds records through a builder as the recorder
 * drains, sampling the "telemetry.stage.<name>" histograms. Batch:
 * lifecycleSpans() / writeLifecycleJson() rebuild the spans of the
 * retained records for `cachecraft_sim --trace-json`.
 *
 * Pairing rules, over records in record order:
 *   - coalesce, decode: instants (args sectors = a, status = flags).
 *   - mem_inst: kCoalesce to its last sector's kComplete; sectors link
 *     through kRequestStart.a (the low 32 bits of the kCoalesce id).
 *   - l2.read: kL2Queue to the same id's response kXbarHop.
 *   - mrc.probe: kMrcProbe to the next kMrcFill of the same slice and
 *     line (zero length on a hit); args resident = the hit flag.
 *   - dram.service, and for reads dram.data.read / dram.ecc.read:
 *     kDramXfer.at - a (queue arrival) to kDramDone; dram.service
 *     carries args row_outcome. Writes are posted: no stage span.
 */

#ifndef CACHECRAFT_TELEMETRY_LIFECYCLE_HPP
#define CACHECRAFT_TELEMETRY_LIFECYCLE_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "telemetry/flight_recorder.hpp"

namespace cachecraft::telemetry {

/** Lifecycle stages of a memory request (trace span names). */
enum class Stage : std::uint8_t
{
    kCoalesce,      //!< warp lanes -> unique sector requests (instant)
    kMemInst,       //!< whole warp memory instruction
    kL2Read,        //!< L2 slice service: queue through response hop
    kMrcProbe,      //!< metadata lookup: probe until field resident
    kDramDataRead,  //!< DRAM data-sector read transaction
    kDramDataWrite, //!< DRAM data-sector write transaction
    kDramEccRead,   //!< DRAM metadata (redundancy) read transaction
    kDramEccWrite,  //!< DRAM metadata write transaction
    kDramService,   //!< channel queue entry -> data available
    kDecode,        //!< codec decode/verify outcome (instant)
    kCount,
};

/** Stable span name of a stage (also the histogram stat suffix). */
const char *toString(Stage stage);

/** One lifecycle span, or an instant marker (begin == end). */
struct LifecycleSpan
{
    Stage stage = Stage::kCount;
    /** Request id grouping the spans of one lifecycle (async track). */
    std::uint64_t id = 0;
    Cycle begin = 0;
    Cycle end = 0;
    bool instant = false;
    /** Optional single argument (nullptr = none). */
    const char *argKey = nullptr;
    double argVal = 0.0;
};

/**
 * Incremental pairing of flight records into lifecycle spans. Holds
 * only the open half of each pair, so its state is bounded by the
 * requests in flight.
 */
class LifecycleBuilder
{
  public:
    /** Consume the next record; append each span it completes. */
    void consume(const FlightRecord &r, std::vector<LifecycleSpan> &out);

  private:
    struct OpenInst
    {
        std::uint64_t id = 0;
        Cycle begin = 0;
        std::uint32_t pending = 0; //!< sectors not yet complete
    };
    struct OpenProbe
    {
        std::uint64_t id = 0;
        Cycle begin = 0;
    };

    /** Open mem_inst spans, by the low 32 bits of their id. */
    std::unordered_map<std::uint32_t, OpenInst> insts_;
    /** Sector request id -> its instruction's key in insts_. */
    std::unordered_map<std::uint64_t, std::uint32_t> sectors_;
    /** Open l2.read spans: id -> queue-entry cycle. */
    std::unordered_map<std::uint64_t, Cycle> l2Reads_;
    /** Missed MRC probes waiting for a fill, by mrcLineKey(). */
    std::unordered_map<std::uint64_t, std::vector<OpenProbe>> probes_;
    /** Issued DRAM transactions: id -> queue-arrival cycle. */
    std::unordered_map<std::uint64_t, Cycle> dram_;
};

/**
 * Every lifecycle span of @p records (oldest first), sorted by
 * (begin, id, stage, end, arg). Spans whose opening record is not in
 * @p records are omitted.
 */
std::vector<LifecycleSpan>
lifecycleSpans(std::span<const FlightRecord> records);

/**
 * Chrome trace_event JSON of the lifecycle spans of @p records (async
 * "b"/"e" pairs, "i" for instants, category "lifecycle"), loadable in
 * chrome://tracing and Perfetto. One simulated cycle maps to one
 * microsecond of trace time; @p dropped is the recorder's overflow
 * count, reported as otherData.dropped_events.
 */
void writeLifecycleJson(std::ostream &os,
                        std::span<const FlightRecord> records,
                        std::uint64_t dropped);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_LIFECYCLE_HPP
