#include "telemetry/critical_path.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <ostream>
#include <unordered_map>

#include "common/json.hpp"
#include "common/log.hpp"

namespace cachecraft::telemetry {

const char *
toString(PathSegment segment)
{
    static constexpr const char *kNames[] = {
        "data_fetch",        "data_bank_row", "data_queue",
        "meta_fetch",        "meta_bank_row", "meta_queue",
        "mrc_wait",          "mshr_wait",     "l2_service",
        "xbar_backpressure", "xbar_transit",  "l1_service",
        "other"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(PathSegment::kCount));
    return segment < PathSegment::kCount
               ? kNames[static_cast<std::size_t>(segment)]
               : "unknown";
}

bool
isMetadataSegment(PathSegment segment)
{
    switch (segment) {
      case PathSegment::kMetaFetch:
      case PathSegment::kMetaBankRow:
      case PathSegment::kMetaQueue:
      case PathSegment::kMrcWait:
        return true;
      default:
        return false;
    }
}

std::string
shapeName(std::uint32_t shape_mask)
{
    std::string name;
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(PathSegment::kCount); ++s) {
        if ((shape_mask & (1u << s)) == 0)
            continue;
        if (!name.empty())
            name += '+';
        name += toString(static_cast<PathSegment>(s));
    }
    return name.empty() ? "none" : name;
}

namespace {

constexpr std::size_t kNumSegments =
    static_cast<std::size_t>(PathSegment::kCount);

/** One blocking interval a record claims; enum order = priority. */
struct Claim
{
    Cycle start = 0;
    Cycle end = 0;
    PathSegment segment = PathSegment::kOther;
};

/** Sorted MRC fill cycles per (slice, metadata line): mrcLineKey(). */
using FillIndex = std::unordered_map<std::uint64_t, std::vector<Cycle>>;

FillIndex
buildFillIndex(const std::vector<FlightRecord> &records)
{
    FillIndex fills;
    for (const FlightRecord &r : records) {
        if (static_cast<RecordKind>(r.kind) == RecordKind::kMrcFill)
            fills[mrcLineKey(r)].push_back(r.at);
    }
    for (auto &[line, cycles] : fills)
        std::sort(cycles.begin(), cycles.end());
    return fills;
}

/** First fill of @p line (a mrcLineKey()) at or after @p at;
 *  @p fallback if none. */
Cycle
fillAfter(const FillIndex &fills, std::uint64_t line, Cycle at,
          Cycle fallback)
{
    const auto it = fills.find(line);
    if (it == fills.end())
        return fallback;
    const auto lo =
        std::lower_bound(it->second.begin(), it->second.end(), at);
    return lo == it->second.end() ? fallback : *lo;
}

/** The admit record that releases a blocked record, else @p end. */
Cycle
admitAfter(const std::vector<const FlightRecord *> &recs,
           std::size_t blocked_index, RecordKind admit_kind, Cycle end)
{
    for (std::size_t i = blocked_index + 1; i < recs.size(); ++i) {
        if (static_cast<RecordKind>(recs[i]->kind) == admit_kind)
            return recs[i]->at;
    }
    return end;
}

/**
 * Rebuild the blocking claims of one request from its records (in
 * record order), clipped to [start, end).
 */
std::vector<Claim>
buildClaims(const std::vector<const FlightRecord *> &recs,
            const FillIndex &fills, Cycle start, Cycle end)
{
    std::vector<Claim> claims;
    const auto claim = [&](Cycle s, Cycle e, PathSegment segment) {
        s = std::max(s, start);
        e = std::min(e, end);
        if (s < e)
            claims.push_back({s, e, segment});
    };

    std::vector<bool> dramDoneUsed(recs.size(), false);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const FlightRecord &r = *recs[i];
        switch (static_cast<RecordKind>(r.kind)) {
          case RecordKind::kL1Hit:
            claim(r.at, r.at + r.a, PathSegment::kL1Service);
            break;
          case RecordKind::kL1MshrMerge:
            claim(r.at, end, PathSegment::kMshrWait);
            break;
          case RecordKind::kL1MshrBlocked:
            claim(r.at,
                  admitAfter(recs, i, RecordKind::kL1MshrAdmit, end),
                  PathSegment::kMshrWait);
            break;
          case RecordKind::kXbarHop:
            claim(r.at, r.at + r.a, PathSegment::kXbarBackpressure);
            claim(r.at + r.a, r.at + r.a + r.b,
                  PathSegment::kXbarTransit);
            break;
          case RecordKind::kL2Queue:
            claim(r.at, r.at + r.a, PathSegment::kL2Service);
            break;
          case RecordKind::kL2Probe:
            if (r.flags & kFlagHit)
                claim(r.at, r.at + r.a, PathSegment::kL2Service);
            break;
          case RecordKind::kL2MshrMerge:
            claim(r.at, end, PathSegment::kMshrWait);
            break;
          case RecordKind::kL2MshrBlocked:
            claim(r.at,
                  admitAfter(recs, i, RecordKind::kL2MshrAdmit, end),
                  PathSegment::kMshrWait);
            break;
          case RecordKind::kMrcProbe:
            if (!(r.flags & kFlagHit))
                claim(r.at, fillAfter(fills, mrcLineKey(r), r.at, end),
                      PathSegment::kMrcWait);
            break;
          case RecordKind::kDramXfer: {
            if (r.flags & kFlagWrite)
                break; // posted writes never block the request
            // Pair with the matching done record (same ECC class, in
            // record order; both were written at issue time).
            const FlightRecord *done = nullptr;
            for (std::size_t j = i + 1; j < recs.size(); ++j) {
                const FlightRecord &cand = *recs[j];
                if (static_cast<RecordKind>(cand.kind) !=
                        RecordKind::kDramDone ||
                    dramDoneUsed[j])
                    continue;
                if ((cand.flags & kFlagEcc) != (r.flags & kFlagEcc))
                    continue;
                dramDoneUsed[j] = true;
                done = &cand;
                break;
            }
            const bool meta = (r.flags & kFlagEcc) != 0;
            const Cycle arrival = r.at - r.a;
            claim(arrival, r.at,
                  meta ? PathSegment::kMetaQueue
                       : PathSegment::kDataQueue);
            claim(r.at, r.at + r.b,
                  meta ? PathSegment::kMetaBankRow
                       : PathSegment::kDataBankRow);
            if (done != nullptr)
                claim(r.at + r.b, done->at,
                      meta ? PathSegment::kMetaFetch
                           : PathSegment::kDataFetch);
            break;
          }
          default:
            break;
        }
    }
    return claims;
}

/**
 * Boundary sweep: give every cycle of [start, end) to the highest-
 * priority covering claim, else kOther. Exact by construction.
 */
void
sweepClaims(const std::vector<Claim> &claims, RequestPath *path)
{
    std::vector<Cycle> bounds;
    bounds.reserve(2 * claims.size() + 2);
    bounds.push_back(path->start);
    bounds.push_back(path->end);
    for (const Claim &c : claims) {
        bounds.push_back(c.start);
        bounds.push_back(c.end);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());

    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const Cycle lo = bounds[i];
        const Cycle hi = bounds[i + 1];
        if (lo < path->start || hi > path->end)
            continue;
        PathSegment winner = PathSegment::kOther;
        for (const Claim &c : claims) {
            if (c.start <= lo && c.end >= hi &&
                static_cast<std::uint8_t>(c.segment) <
                    static_cast<std::uint8_t>(winner))
                winner = c.segment;
        }
        path->segmentCycles[static_cast<std::size_t>(winner)] +=
            hi - lo;
    }
    for (std::size_t s = 0; s < kNumSegments; ++s) {
        if (path->segmentCycles[s] > 0)
            path->shapeMask |= 1u << s;
    }
}

Cycle
nearestRank(const std::vector<Cycle> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(q * n + 0.999999);
    rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
    return sorted[rank - 1];
}

} // namespace

std::vector<RequestPath>
attributeRequests(const std::vector<FlightRecord> &records)
{
    // Group records per id in record order; ids are allocated in
    // issue order, so iterating a sorted map keeps output stable.
    std::map<std::uint64_t, std::vector<const FlightRecord *>> byId;
    for (const FlightRecord &r : records) {
        if (r.id != 0)
            byId[r.id].push_back(&r);
    }
    const FillIndex fills = buildFillIndex(records);

    std::vector<RequestPath> paths;
    for (const auto &[id, recs] : byId) {
        const FlightRecord *start = nullptr;
        const FlightRecord *complete = nullptr;
        for (const FlightRecord *r : recs) {
            if (static_cast<RecordKind>(r->kind) ==
                    RecordKind::kRequestStart &&
                start == nullptr)
                start = r;
            if (static_cast<RecordKind>(r->kind) ==
                RecordKind::kComplete)
                complete = r;
        }
        if (start == nullptr || complete == nullptr)
            continue; // never completed, or overflow ate the start
        RequestPath path;
        path.id = id;
        path.addr = start->addr;
        path.start = start->at;
        path.end = std::max(complete->at, start->at);
        path.isWrite = (start->flags & kFlagWrite) != 0;
        const std::vector<Claim> claims =
            buildClaims(recs, fills, path.start, path.end);
        sweepClaims(claims, &path);
        paths.push_back(std::move(path));
    }
    return paths;
}

double
CriticalPathBreakdown::metadataFraction() const
{
    if (totalLatency == 0)
        return 0.0;
    std::uint64_t meta = 0;
    for (std::size_t s = 0; s < kNumSegments; ++s) {
        if (isMetadataSegment(static_cast<PathSegment>(s)))
            meta += totalCycles[s];
    }
    return static_cast<double>(meta) /
           static_cast<double>(totalLatency);
}

CriticalPathBreakdown
analyzeCriticalPath(const std::vector<FlightRecord> &records,
                    std::size_t top_k)
{
    CriticalPathBreakdown breakdown;
    std::vector<RequestPath> paths = attributeRequests(records);

    // Count request-scoped ids that never resolved to a full path.
    // Coalesce records use the warp-instruction id, which is not a
    // per-sector lifecycle, so a coalesce-only id is not incomplete.
    std::map<std::uint64_t, bool> resolved;
    for (const FlightRecord &r : records) {
        if (r.id != 0 &&
            static_cast<RecordKind>(r.kind) != RecordKind::kCoalesce)
            resolved.emplace(r.id, false);
    }
    for (const RequestPath &p : paths)
        resolved[p.id] = true;
    for (const auto &[id, done] : resolved) {
        if (!done)
            ++breakdown.incompleteRequests;
    }

    breakdown.requests = paths.size();
    std::map<std::uint32_t, std::vector<Cycle>> shapeLatencies;
    for (const RequestPath &p : paths) {
        breakdown.totalLatency += p.latency();
        for (std::size_t s = 0; s < kNumSegments; ++s)
            breakdown.totalCycles[s] += p.segmentCycles[s];
        shapeLatencies[p.shapeMask].push_back(p.latency());
    }

    std::sort(paths.begin(), paths.end(),
              [](const RequestPath &a, const RequestPath &b) {
                  if (a.latency() != b.latency())
                      return a.latency() > b.latency();
                  return a.id < b.id;
              });
    if (paths.size() > top_k)
        paths.resize(top_k);
    breakdown.slowest = std::move(paths);

    for (auto &[mask, latencies] : shapeLatencies) {
        std::sort(latencies.begin(), latencies.end());
        ShapeBucket bucket;
        bucket.shapeMask = mask;
        bucket.count = latencies.size();
        bucket.p50 = nearestRank(latencies, 0.50);
        bucket.p90 = nearestRank(latencies, 0.90);
        bucket.p99 = nearestRank(latencies, 0.99);
        bucket.max = latencies.back();
        breakdown.shapes.push_back(bucket);
    }
    std::sort(breakdown.shapes.begin(), breakdown.shapes.end(),
              [](const ShapeBucket &a, const ShapeBucket &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.shapeMask < b.shapeMask;
              });
    return breakdown;
}

void
writeBreakdownJson(std::ostream &os,
                   const CriticalPathBreakdown &breakdown,
                   const FlightDump &dump, const std::string &source)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cachecraft.trace_analysis/1");
    w.key("schema_version").value(kJsonSchemaVersion);
    w.key("requests").value(breakdown.requests);
    w.key("incomplete_requests").value(breakdown.incompleteRequests);
    w.key("total_latency_cycles").value(breakdown.totalLatency);
    w.key("metadata_fraction").value(breakdown.metadataFraction());
    w.key("critical_path").beginObject();
    for (std::size_t s = 0; s < kNumSegments; ++s)
        w.key(toString(static_cast<PathSegment>(s)))
            .value(breakdown.totalCycles[s]);
    w.endObject();
    w.key("slowest").beginArray();
    for (const RequestPath &p : breakdown.slowest) {
        w.beginObject();
        w.key("id").value(p.id);
        w.key("addr").value(p.addr);
        w.key("start").value(p.start);
        w.key("end").value(p.end);
        w.key("latency").value(p.latency());
        w.key("write").value(p.isWrite);
        w.key("shape").value(shapeName(p.shapeMask));
        w.key("segments").beginObject();
        for (std::size_t s = 0; s < kNumSegments; ++s) {
            if (p.segmentCycles[s] > 0)
                w.key(toString(static_cast<PathSegment>(s)))
                    .value(p.segmentCycles[s]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("shapes").beginArray();
    for (const ShapeBucket &b : breakdown.shapes) {
        w.beginObject();
        w.key("shape").value(shapeName(b.shapeMask));
        w.key("count").value(b.count);
        w.key("p50").value(b.p50);
        w.key("p90").value(b.p90);
        w.key("p99").value(b.p99);
        w.key("max").value(b.max);
        w.endObject();
    }
    w.endArray();
    w.key("records").value(
        static_cast<std::uint64_t>(dump.records.size()));
    w.key("dropped_records").value(dump.dropped);
    w.key("last_cycle").value(dump.lastCycle);
    w.key("manifest").beginObject();
    w.key("source").value(source);
    w.endObject();
    w.endObject();
    os << '\n';
}

void
writeChromePathJson(std::ostream &os,
                    const std::vector<FlightRecord> &records,
                    const std::vector<RequestPath> &paths)
{
    std::map<std::uint64_t, std::vector<const FlightRecord *>> byId;
    for (const FlightRecord &r : records) {
        if (r.id != 0)
            byId[r.id].push_back(&r);
    }
    const FillIndex fills = buildFillIndex(records);

    JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("tool").value("cachecraft_trace");
    w.key("schema_version").value(kJsonSchemaVersion);
    w.key("time_unit").value("1 simulated cycle = 1 us");
    w.endObject();
    w.key("traceEvents").beginArray();
    auto emit = [&w](const char *name, std::uint64_t id, char phase,
                     Cycle ts) {
        w.beginObject();
        w.key("name").value(name);
        w.key("cat").value("critical_path");
        w.key("ph").value(std::string_view(&phase, 1));
        w.key("pid").value(std::uint64_t{0});
        w.key("tid").value(std::uint64_t{0});
        w.key("ts").value(ts);
        w.key("id").value(std::to_string(id));
        w.endObject();
    };
    for (const RequestPath &p : paths) {
        emit("request", p.id, 'b', p.start);
        const auto it = byId.find(p.id);
        if (it != byId.end()) {
            for (const Claim &c :
                 buildClaims(it->second, fills, p.start, p.end)) {
                emit(toString(c.segment), p.id, 'b', c.start);
                emit(toString(c.segment), p.id, 'e', c.end);
            }
        }
        emit("request", p.id, 'e', p.end);
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace cachecraft::telemetry
