#include "telemetry/lifecycle.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>

#include "common/json.hpp"

namespace cachecraft::telemetry {

const char *
toString(Stage stage)
{
    static constexpr const char *kNames[] = {
        "coalesce",      "mem_inst",       "l2.read",
        "mrc.probe",     "dram.data.read", "dram.data.write",
        "dram.ecc.read", "dram.ecc.write", "dram.service",
        "decode"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(Stage::kCount));
    return stage < Stage::kCount ? kNames[static_cast<std::size_t>(stage)]
                                 : "unknown";
}

void
LifecycleBuilder::consume(const FlightRecord &r,
                          std::vector<LifecycleSpan> &out)
{
    const auto span = [&out](Stage stage, std::uint64_t id, Cycle begin,
                             Cycle end, const char *arg_key = nullptr,
                             double arg_val = 0.0, bool instant = false) {
        out.push_back(LifecycleSpan{stage, id, begin, end, instant,
                                    arg_key, arg_val});
    };

    switch (static_cast<RecordKind>(r.kind)) {
      case RecordKind::kCoalesce:
        span(Stage::kCoalesce, r.id, r.at, r.at, "sectors", r.a, true);
        insts_[static_cast<std::uint32_t>(r.id)] =
            OpenInst{r.id, r.at, r.a};
        break;
      case RecordKind::kRequestStart:
        if (insts_.count(r.a))
            sectors_[r.id] = r.a;
        break;
      case RecordKind::kComplete: {
        const auto sector = sectors_.find(r.id);
        if (sector == sectors_.end())
            break;
        const auto inst = insts_.find(sector->second);
        sectors_.erase(sector);
        if (inst == insts_.end() || --inst->second.pending > 0)
            break;
        span(Stage::kMemInst, inst->second.id, inst->second.begin, r.at);
        insts_.erase(inst);
        break;
      }
      case RecordKind::kL2Queue:
        l2Reads_[r.id] = r.at;
        break;
      case RecordKind::kXbarHop: {
        if (!(r.flags & kFlagResponse))
            break;
        const auto it = l2Reads_.find(r.id);
        if (it == l2Reads_.end())
            break;
        span(Stage::kL2Read, r.id, it->second, r.at);
        l2Reads_.erase(it);
        break;
      }
      case RecordKind::kMrcProbe:
        if (r.flags & kFlagHit)
            span(Stage::kMrcProbe, r.id, r.at, r.at, "resident", 1.0);
        else
            probes_[mrcLineKey(r)].push_back(OpenProbe{r.id, r.at});
        break;
      case RecordKind::kMrcFill: {
        const auto it = probes_.find(mrcLineKey(r));
        if (it == probes_.end())
            break;
        for (const OpenProbe &p : it->second)
            span(Stage::kMrcProbe, p.id, p.begin, r.at, "resident", 0.0);
        probes_.erase(it);
        break;
      }
      case RecordKind::kDramXfer:
        dram_[r.id] = r.at - r.a;
        break;
      case RecordKind::kDramDone: {
        const auto it = dram_.find(r.id);
        if (it == dram_.end())
            break;
        const Cycle begin = it->second;
        dram_.erase(it);
        span(Stage::kDramService, r.id, begin, r.at, "row_outcome",
             static_cast<double>((r.flags & kFlagRowMask) >>
                                 kFlagRowShift));
        if (!(r.flags & kFlagWrite))
            span((r.flags & kFlagEcc) ? Stage::kDramEccRead
                                      : Stage::kDramDataRead,
                 r.id, begin, r.at);
        break;
      }
      case RecordKind::kDecode:
        span(Stage::kDecode, r.id, r.at, r.at, "status", r.flags, true);
        break;
      default:
        break;
    }
}

std::vector<LifecycleSpan>
lifecycleSpans(std::span<const FlightRecord> records)
{
    LifecycleBuilder builder;
    std::vector<LifecycleSpan> spans;
    for (const FlightRecord &r : records)
        builder.consume(r, spans);
    const auto key = [](const LifecycleSpan &s) {
        return std::tuple(s.begin, s.id, s.stage, s.end, s.argVal);
    };
    std::sort(spans.begin(), spans.end(),
              [&key](const LifecycleSpan &a, const LifecycleSpan &b) {
                  return key(a) < key(b);
              });
    return spans;
}

void
writeLifecycleJson(std::ostream &os,
                   std::span<const FlightRecord> records,
                   std::uint64_t dropped)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("tool").value("cachecraft");
    w.key("schema_version").value(kJsonSchemaVersion);
    w.key("time_unit").value("1 simulated cycle = 1 us");
    w.key("dropped_events").value(dropped);
    w.endObject();
    w.key("traceEvents").beginArray();
    const auto event = [&w](const LifecycleSpan &s, char phase, Cycle ts) {
        w.beginObject();
        w.key("name").value(toString(s.stage));
        w.key("cat").value("lifecycle");
        w.key("ph").value(std::string_view(&phase, 1));
        w.key("pid").value(std::uint64_t{0});
        w.key("tid").value(std::uint64_t{0});
        w.key("ts").value(ts);
        if (phase == 'i')
            w.key("s").value("t");
        w.key("id").value(std::to_string(s.id));
        if (phase != 'e' && s.argKey) {
            w.key("args").beginObject();
            w.key(s.argKey).value(s.argVal);
            w.endObject();
        }
        w.endObject();
    };
    for (const LifecycleSpan &s : lifecycleSpans(records)) {
        if (s.instant) {
            event(s, 'i', s.begin);
        } else {
            event(s, 'b', s.begin);
            event(s, 'e', s.end);
        }
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace cachecraft::telemetry
