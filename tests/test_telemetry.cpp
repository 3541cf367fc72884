/**
 * @file
 * Tests for the run-telemetry subsystem: JSON utilities, the hub's
 * stage histograms, the epoch-delta sampler (telescoping invariant),
 * and a full traced GpuSystem run whose artifacts must be valid,
 * well-nested JSON.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/lifecycle.hpp"

namespace cachecraft {
namespace {

// --------------------------------------------------------------------
// JSON utilities
// --------------------------------------------------------------------

TEST(Json, EscapePassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("hello world"), "hello world");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(Json, EscapeSpecials)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, NumberFormats)
{
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-17.0), "-17");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    // A fractional value keeps its fraction and stays valid JSON.
    const std::string frac = jsonNumber(1.5);
    EXPECT_NE(frac.find('.'), std::string::npos);
    EXPECT_TRUE(jsonValidate(frac));
}

TEST(Json, ValidateAcceptsAndRejects)
{
    EXPECT_TRUE(jsonValidate("{}"));
    EXPECT_TRUE(jsonValidate("[1, 2.5, \"x\", null, true, false]"));
    EXPECT_TRUE(jsonValidate("{\"a\": {\"b\": [{}]}}"));

    std::string err;
    EXPECT_FALSE(jsonValidate("{", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(jsonValidate("{\"a\": 1,}"));
    EXPECT_FALSE(jsonValidate("[1 2]"));
    EXPECT_FALSE(jsonValidate("\"unterminated"));
    EXPECT_FALSE(jsonValidate("{} trailing"));
}

TEST(Json, WriterEmitsValidNestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("str").value("needs \"escaping\"\n");
    w.key("int").value(std::uint64_t{42});
    w.key("neg").value(std::int64_t{-7});
    w.key("dbl").value(2.25);
    w.key("flag").value(true);
    w.key("arr").beginArray();
    w.value(1).value(2).beginObject().key("k").value("v").endObject();
    w.endArray();
    w.key("raw").raw("[null]");
    w.endObject();

    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err << "\n" << os.str();
    EXPECT_NE(os.str().find("\\\"escaping\\\""), std::string::npos);
}

// --------------------------------------------------------------------
// Telemetry hub
// --------------------------------------------------------------------

telemetry::FlightRecord
record(telemetry::RecordKind kind, std::uint64_t id, Cycle at,
       std::uint8_t flags = 0)
{
    telemetry::FlightRecord r;
    r.kind = static_cast<std::uint8_t>(kind);
    r.id = id;
    r.at = at;
    r.flags = flags;
    return r;
}

TEST(Telemetry, RuntimeGateOffRecordsNothing)
{
    StatRegistry stats;
    telemetry::TelemetryOptions opts; // every gate off
    telemetry::Telemetry tel(&stats, opts);

    EXPECT_FALSE(tel.active());
    EXPECT_EQ(tel.recorder(), nullptr);
    EXPECT_EQ(tel.stageHistogram(telemetry::Stage::kL2Read).count(), 0u);
}

TEST(Telemetry, SpansFeedRingAndHistogram)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    StatRegistry stats;
    telemetry::TelemetryOptions opts;
    opts.traceEnabled = true;
    opts.flightCapacity = 16;
    telemetry::Telemetry tel(&stats, opts);

    // The lifecycle trace runs on the flight recorder.
    ASSERT_TRUE(tel.active());
    telemetry::FlightRecorder *fr = tel.recorder();
    ASSERT_NE(fr, nullptr);
    const std::uint64_t id = tel.newId();
    EXPECT_NE(id, 0u);
    using telemetry::RecordKind;
    for (const telemetry::FlightRecord &r :
         {record(RecordKind::kL2Queue, id, 100),
          record(RecordKind::kXbarHop, id, 140, telemetry::kFlagResponse),
          record(RecordKind::kDecode, id, 140)})
        fr->record(static_cast<RecordKind>(r.kind), r.id, r.at, r.addr,
                   r.a, r.b, r.flags);

    EXPECT_EQ(fr->size(), 3u);
    // Nothing is sampled until the records drain.
    EXPECT_EQ(tel.stageHistogram(telemetry::Stage::kL2Read).count(), 0u);
    fr->drain();
    // Spans sample the per-stage latency histogram; instants do not.
    EXPECT_EQ(tel.stageHistogram(telemetry::Stage::kL2Read).count(), 1u);
    EXPECT_DOUBLE_EQ(
        tel.stageHistogram(telemetry::Stage::kL2Read).mean(), 40.0);
    EXPECT_EQ(tel.stageHistogram(telemetry::Stage::kDecode).count(), 0u);
    // A second drain sees no record twice.
    fr->drain();
    EXPECT_EQ(tel.stageHistogram(telemetry::Stage::kL2Read).count(), 1u);
    // The histograms are registered with the provided registry.
    EXPECT_NE(stats.histogram("telemetry.stage.l2.read"), nullptr);
}

TEST(Telemetry, StageNamesAreStable)
{
    using telemetry::Stage;
    EXPECT_STREQ(toString(Stage::kCoalesce), "coalesce");
    EXPECT_STREQ(toString(Stage::kMemInst), "mem_inst");
    EXPECT_STREQ(toString(Stage::kL2Read), "l2.read");
    EXPECT_STREQ(toString(Stage::kMrcProbe), "mrc.probe");
    EXPECT_STREQ(toString(Stage::kDramDataRead), "dram.data.read");
    EXPECT_STREQ(toString(Stage::kDramEccRead), "dram.ecc.read");
    EXPECT_STREQ(toString(Stage::kDramService), "dram.service");
    EXPECT_STREQ(toString(Stage::kDecode), "decode");
}

// --------------------------------------------------------------------
// Stat sampler
// --------------------------------------------------------------------

TEST(StatSampler, DeltasTelescopeToFinalValues)
{
    StatRegistry reg;
    Counter a, b;
    reg.registerCounter("x.a", &a);
    reg.registerCounter("x.b", &b);

    telemetry::StatSampler sampler(&reg, 100);
    EXPECT_EQ(sampler.nextBoundary(0), 100u);
    EXPECT_EQ(sampler.nextBoundary(99), 100u);
    EXPECT_EQ(sampler.nextBoundary(100), 200u);

    a.inc(5);
    sampler.closeEpoch(100);
    a.inc(2);
    b.inc(7);
    sampler.closeEpoch(200);
    // Nothing changed: epoch 2 is elided entirely.
    sampler.closeEpoch(300);
    b.inc(1);
    sampler.closeEpoch(350); // partial final epoch (end of run)

    const auto &epochs = sampler.epochs();
    ASSERT_EQ(epochs.size(), 3u);
    EXPECT_EQ(epochs[0].index, 0u);
    EXPECT_EQ(epochs[0].start, 0u);
    EXPECT_EQ(epochs[0].end, 100u);
    EXPECT_EQ(epochs[1].index, 1u);
    EXPECT_EQ(epochs[2].index, 3u); // index 2 skipped
    EXPECT_EQ(epochs[2].start, 300u);
    EXPECT_EQ(epochs[2].end, 350u);

    // Sparse rows: epoch 0 saw only x.a change.
    ASSERT_EQ(epochs[0].deltas.size(), 1u);
    EXPECT_DOUBLE_EQ(epochs[0].deltas[0].second, 5.0);
    ASSERT_EQ(epochs[1].deltas.size(), 2u);

    const auto summed = sampler.summedDeltas();
    for (const auto &[name, value] : reg.flatten()) {
        const auto it = summed.find(name);
        const double total = it == summed.end() ? 0.0 : it->second;
        EXPECT_DOUBLE_EQ(total, value) << name;
    }
}

TEST(StatSampler, CsvAndJsonRenderings)
{
    StatRegistry reg;
    Counter c;
    reg.registerCounter("m.hits", &c);
    telemetry::StatSampler sampler(&reg, 50);
    c.inc(3);
    sampler.closeEpoch(50);

    const std::string csv = sampler.renderCsv();
    EXPECT_NE(csv.find("epoch,cycle_start,cycle_end,stat,delta"),
              std::string::npos);
    EXPECT_NE(csv.find("0,0,50,m.hits,3"), std::string::npos);

    std::ostringstream os;
    JsonWriter w(os);
    sampler.writeJson(w);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("m.hits"), std::string::npos);
}

TEST(StatSamplerDeathTest, LateRegistrationPanics)
{
    StatRegistry reg;
    Counter c;
    reg.registerCounter("early", &c);
    telemetry::StatSampler sampler(&reg, 100);
    Counter late;
    reg.registerCounter("late", &late);
    EXPECT_DEATH(sampler.closeEpoch(100), "registered while sampling");
}

// --------------------------------------------------------------------
// Traced end-to-end run
// --------------------------------------------------------------------

SystemConfig
tracedConfig()
{
    SystemConfig cfg;
    cfg.scheme = SchemeKind::kCacheCraft;
    cfg.numSms = 4;
    cfg.dram.numChannels = 4;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    cfg.l2.cache.sizeBytes = 64 * 1024;
    cfg.telemetry.traceEnabled = true;
    cfg.telemetry.flightCapacity = 1u << 20; // big enough: no drops
    cfg.telemetry.sampleInterval = 2000;
    return cfg;
}

WorkloadParams
tinyWorkload()
{
    WorkloadParams p;
    p.footprintBytes = 256 * 1024;
    p.numWarps = 8;
    p.memInstsPerWarp = 8;
    return p;
}

class TracedRun : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!telemetry::kTraceCompiledIn)
            GTEST_SKIP() << "tracing compiled out";
        gpu_ = std::make_unique<GpuSystem>(tracedConfig());
        rs_ = gpu_->run(
            makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));
    }

    std::unique_ptr<GpuSystem> gpu_;
    RunStats rs_;
};

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST_F(TracedRun, ChromeTraceIsValidAndBalanced)
{
    const telemetry::FlightRecorder *fr = gpu_->telemetry().recorder();
    ASSERT_NE(fr, nullptr);
    ASSERT_EQ(fr->dropped(), 0u)
        << "raise flightCapacity: nesting checks need the full trace";

    std::ostringstream os;
    telemetry::writeLifecycleJson(os, fr->snapshot(), fr->dropped());
    const std::string json = os.str();

    std::string err;
    ASSERT_TRUE(jsonValidate(json, &err)) << err;

    // Every async span opens ("b") exactly once and closes ("e") once.
    const std::size_t begins = countOccurrences(json, "\"ph\":\"b\"");
    const std::size_t ends = countOccurrences(json, "\"ph\":\"e\"");
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    EXPECT_GT(countOccurrences(json, "\"ph\":\"i\""), 0u);
    for (const char *name : {"\"coalesce\"", "\"mem_inst\"",
                             "\"l2.read\"", "\"mrc.probe\"",
                             "\"dram.data.read\"", "\"dram.ecc.read\"",
                             "\"dram.service\"", "\"decode\""})
        EXPECT_NE(json.find(name), std::string::npos) << name;
}

TEST_F(TracedRun, LifecycleSpansNestInsideL2Envelope)
{
    const auto spans =
        telemetry::lifecycleSpans(gpu_->telemetry().recorder()->snapshot());
    ASSERT_FALSE(spans.empty());

    // Collect the l2.read envelope for every traced L2 request id.
    std::map<std::uint64_t, std::pair<Cycle, Cycle>> envelope;
    for (const auto &s : spans)
        if (s.stage == telemetry::Stage::kL2Read)
            envelope[s.id] = {s.begin, s.end};
    ASSERT_FALSE(envelope.empty());

    // Every downstream span sharing an id (MRC probe, DRAM txns,
    // decode) must fit inside that id's l2.read envelope.
    std::size_t nested = 0;
    for (const auto &s : spans) {
        if (s.stage == telemetry::Stage::kL2Read)
            continue;
        const auto it = envelope.find(s.id);
        if (it == envelope.end())
            continue; // prefetch / SM-track event: no envelope
        EXPECT_GE(s.begin, it->second.first)
            << toString(s.stage) << " id " << s.id;
        EXPECT_LE(s.end, it->second.second)
            << toString(s.stage) << " id " << s.id;
        ++nested;
    }
    EXPECT_GT(nested, 0u);
}

TEST_F(TracedRun, StageHistogramsPopulated)
{
    const auto &l2 =
        gpu_->telemetry().stageHistogram(telemetry::Stage::kL2Read);
    EXPECT_GT(l2.quantile(0.99), 0.0);
    // Pinned: any drift in a pairing rule (lifecycle.hpp) shows here.
    EXPECT_EQ(l2.count(), 8192u);
    EXPECT_DOUBLE_EQ(l2.mean(), 197.6953125);
    const auto &dram =
        gpu_->telemetry().stageHistogram(telemetry::Stage::kDramService);
    EXPECT_EQ(dram.count(), 13824u);
    EXPECT_DOUBLE_EQ(dram.mean(), 828.94791666666663);
}

TEST_F(TracedRun, EveryRegisteredStageHistogramHoldsSamples)
{
    // A registered stage histogram must be able to hold a sample:
    // instants (coalesce, decode) and posted writes have no latency
    // span, so they register none. A random CacheCraft run reaches
    // every span stage (MRC misses force metadata reads).
    GpuSystem gpu(tracedConfig());
    gpu.run(makeWorkload(WorkloadKind::kRandomAccess, tinyWorkload()));
    std::size_t registered = 0;
    for (const auto &[name, value] : gpu.statsRegistry().flatten()) {
        if (!name.starts_with("telemetry.stage.") ||
            !name.ends_with(".count"))
            continue;
        ++registered;
        EXPECT_GT(value, 0.0) << name;
    }
    EXPECT_EQ(registered, 6u);
}

TEST_F(TracedRun, StreamingAndBatchTotalsAgree)
{
    // The same span definition, run live over the draining ring and
    // afterwards over the retained records, yields the same totals.
    const telemetry::FlightRecorder *fr = gpu_->telemetry().recorder();
    ASSERT_EQ(fr->dropped(), 0u);
    std::map<telemetry::Stage, std::pair<std::uint64_t, std::uint64_t>>
        batch;
    for (const auto &s : telemetry::lifecycleSpans(fr->snapshot())) {
        if (telemetry::isInstant(s.stage))
            continue;
        batch[s.stage].first += 1;
        batch[s.stage].second += s.end - s.begin;
    }
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(telemetry::Stage::kCount); ++i) {
        const auto stage = static_cast<telemetry::Stage>(i);
        const auto &h = gpu_->telemetry().stageHistogram(stage);
        const auto [count, sum] = batch[stage];
        EXPECT_EQ(h.count(), count) << toString(stage);
        EXPECT_EQ(h.sum(), static_cast<double>(sum)) << toString(stage);
    }
}

TEST_F(TracedRun, SamplerSumsMatchLiveRegistry)
{
    ASSERT_NE(gpu_->sampler(), nullptr);
    EXPECT_FALSE(gpu_->sampler()->epochs().empty());

    const auto summed = gpu_->sampler()->summedDeltas();
    for (const auto &[name, value] : gpu_->statsRegistry().flatten()) {
        const auto it = summed.find(name);
        const double total = it == summed.end() ? 0.0 : it->second;
        EXPECT_NEAR(total, value, 1e-9) << name;
    }
}

TEST_F(TracedRun, RunReportIsValidJson)
{
    telemetry::RunManifest manifest;
    manifest.tool = "cachecraft_tests";
    manifest.workload = "streaming";
    manifest.workloadSeed = tinyWorkload().seed;
    manifest.wallSeconds = 0.25;
    manifest.extra.emplace_back("note", "unit \"test\"");

    std::ostringstream os;
    telemetry::writeRunReport(os, manifest, gpu_->config(), rs_,
                              gpu_->statsRegistry(), gpu_->sampler());
    std::string err;
    ASSERT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("cachecraft.run_report/1"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"epochs\""), std::string::npos);
    EXPECT_NE(os.str().find("telemetry.stage.l2.read"),
              std::string::npos);
    // Cross-artifact versioning: the report must parse and carry this
    // build's schema_version (cachecraft_diff refuses it otherwise),
    // plus the warnings array (empty on this clean run).
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_TRUE(telemetry::checkSchemaVersion(*doc, "report", &err))
        << err;
    const JsonValue *warnings = doc->find("warnings");
    ASSERT_NE(warnings, nullptr);
    EXPECT_TRUE(warnings->asArray().empty());
}

TEST_F(TracedRun, RunReportCarriesProfileSection)
{
    // A run without profiling omits the section entirely...
    std::ostringstream without;
    telemetry::writeRunReport(without, telemetry::RunManifest{},
                              gpu_->config(), rs_, gpu_->statsRegistry(),
                              gpu_->sampler());
    EXPECT_EQ(without.str().find("\"profile\""), std::string::npos);

    // ...while a profiled system feeds it through writeRunReport.
    SystemConfig cfg = tracedConfig();
    cfg.telemetry.traceEnabled = false;
    cfg.telemetry.profileEnabled = true;
    GpuSystem profiled(cfg);
    const RunStats prs = profiled.run(
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));

    std::ostringstream os;
    telemetry::writeRunReport(os, telemetry::RunManifest{},
                              profiled.config(), prs,
                              profiled.statsRegistry(),
                              profiled.sampler(),
                              profiled.telemetry().profiler());
    std::string err;
    ASSERT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("\"profile\""), std::string::npos);
    EXPECT_NE(os.str().find("\"occupancy\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"stalls\""), std::string::npos);
    EXPECT_NE(os.str().find("\"hot_rows\""), std::string::npos);
}

TEST(RunWarnings, TraceRingOverflowIsReported)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // A traced run on a deliberately tiny ring must overflow and
    // surface a warning in RunStats (and from there the JSON report's
    // warnings array) — while the stage histograms, which drain the
    // ring before it wraps, still cover the whole run.
    SystemConfig cfg = tracedConfig();
    cfg.telemetry.flightCapacity = 8;
    GpuSystem gpu(cfg);
    const RunStats rs = gpu.run(
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));
    GpuSystem full(tracedConfig());
    full.run(makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));

    const telemetry::FlightRecorder *fr = gpu.telemetry().recorder();
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->size(), 8u);
    EXPECT_GT(fr->dropped(), 0u);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(telemetry::Stage::kCount); ++i) {
        const auto stage = static_cast<telemetry::Stage>(i);
        const auto &tiny = gpu.telemetry().stageHistogram(stage);
        const auto &big = full.telemetry().stageHistogram(stage);
        EXPECT_EQ(tiny.count(), big.count()) << toString(stage);
        EXPECT_EQ(tiny.sum(), big.sum()) << toString(stage);
        EXPECT_EQ(tiny.buckets(), big.buckets()) << toString(stage);
    }
    EXPECT_GT(gpu.telemetry()
                  .stageHistogram(telemetry::Stage::kL2Read)
                  .count(),
              0u);

    ASSERT_FALSE(rs.warnings.empty());
    bool found = false;
    for (const std::string &w : rs.warnings)
        found = found || w.find("flight ring overflowed") !=
                             std::string::npos;
    EXPECT_TRUE(found);

    std::ostringstream os;
    telemetry::writeRunReport(os, telemetry::RunManifest{},
                              gpu.config(), rs, gpu.statsRegistry(),
                              gpu.sampler());
    std::string err;
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *warnings = doc->find("warnings");
    ASSERT_NE(warnings, nullptr);
    EXPECT_FALSE(warnings->asArray().empty());
}

TEST(RunWarnings, FlightRingOverflowIsReported)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // Same contract without the lifecycle view: a too-small ring must
    // overflow, count the drops exactly, and surface a warning that
    // round-trips into the JSON report — alongside the critical-path
    // section the recorder feeds.
    SystemConfig cfg = tracedConfig();
    cfg.telemetry.traceEnabled = false;
    cfg.telemetry.flightRecorderEnabled = true;
    cfg.telemetry.flightCapacity = 8;
    GpuSystem gpu(cfg);
    const RunStats rs = gpu.run(
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload()));

    const telemetry::FlightRecorder *fr = gpu.telemetry().recorder();
    ASSERT_NE(fr, nullptr);
    EXPECT_EQ(fr->size(), 8u);
    EXPECT_GT(fr->dropped(), 0u);

    ASSERT_FALSE(rs.warnings.empty());
    bool found = false;
    for (const std::string &w : rs.warnings)
        found = found || w.find("flight ring overflowed") !=
                             std::string::npos;
    EXPECT_TRUE(found);

    std::ostringstream os;
    telemetry::writeRunReport(os, telemetry::RunManifest{},
                              gpu.config(), rs, gpu.statsRegistry(),
                              gpu.sampler(), nullptr, fr);
    std::string err;
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *warnings = doc->find("warnings");
    ASSERT_NE(warnings, nullptr);
    bool inReport = false;
    for (const JsonValue &w : warnings->asArray())
        inReport = inReport ||
                   (w.isString() &&
                    w.asString().find("flight ring overflowed") !=
                        std::string::npos);
    EXPECT_TRUE(inReport);
    const JsonValue *critical = doc->find("critical_path");
    ASSERT_NE(critical, nullptr);
    const JsonValue *dropped = critical->find("flight_dropped");
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(dropped->asNumber(), 0.0);
}

TEST(FlightRecorderOverhead, RecordingLeavesReportBytesUntouched)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // The tentpole timing-neutrality contract, strengthened to byte
    // identity: with the recorder running (big enough ring: no
    // overflow warning), every stat, cycle count, and histogram in
    // the report is byte-for-byte what the plain run produces. Only
    // the opt-in "critical_path" section may differ, so both reports
    // here are written without it.
    SystemConfig off = tracedConfig();
    off.telemetry.traceEnabled = false;
    off.telemetry.sampleInterval = 0;
    SystemConfig on = off;
    on.telemetry.flightRecorderEnabled = true;
    GpuSystem a(on);
    GpuSystem b(off);
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload());
    RunStats ra = a.run(trace);
    RunStats rb = b.run(trace);

    ASSERT_NE(a.telemetry().recorder(), nullptr);
    EXPECT_GT(a.telemetry().recorder()->size(), 0u);
    EXPECT_EQ(a.telemetry().recorder()->dropped(), 0u);

    // Host wall-clock throughput is the one intentionally
    // non-deterministic report section; everything simulated must
    // already match (events executed included), so pin only the
    // wall-clock-derived rates before comparing bytes.
    EXPECT_EQ(ra.simThroughput.eventsExecuted,
              rb.simThroughput.eventsExecuted);
    ra.simThroughput = rb.simThroughput = SimThroughput{};

    std::ostringstream osa;
    std::ostringstream osb;
    telemetry::writeRunReport(osa, telemetry::RunManifest{}, a.config(),
                              ra, a.statsRegistry(), a.sampler());
    telemetry::writeRunReport(osb, telemetry::RunManifest{}, b.config(),
                              rb, b.statsRegistry(), b.sampler());
    EXPECT_EQ(osa.str(), osb.str());
}

TEST(FlightRecorderOverhead, RecorderOnDoesNotChangeTiming)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // Recording is observational: enabling the flight recorder must
    // not move a single simulated cycle or DRAM transaction.
    SystemConfig off = tracedConfig();
    off.telemetry.traceEnabled = false;
    off.telemetry.sampleInterval = 0;
    SystemConfig on = off;
    on.telemetry.flightRecorderEnabled = true;
    GpuSystem a(off);
    GpuSystem b(on);
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload());
    const RunStats ra = a.run(trace);
    const RunStats rb = b.run(trace);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.dramTotalTxns, rb.dramTotalTxns);
    EXPECT_EQ(ra.instructions, rb.instructions);
}

TEST(TracedOverhead, TracingOffMatchesBaselineCycles)
{
    // The runtime gate must not change simulated behaviour: a traced
    // run and an untraced run of the same workload agree exactly, down
    // to the number of events executed (tracing schedules none).
    SystemConfig off = tracedConfig();
    off.telemetry.traceEnabled = false;
    off.telemetry.sampleInterval = 0;
    GpuSystem a(tracedConfig());
    GpuSystem b(off);
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, tinyWorkload());
    const RunStats ra = a.run(trace);
    const RunStats rb = b.run(trace);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.simThroughput.eventsExecuted,
              rb.simThroughput.eventsExecuted);
}

// --------------------------------------------------------------------
// Result tables as JSON artifacts
// --------------------------------------------------------------------

TEST(ResultTable, RenderJsonRoundTrips)
{
    ResultTable t("Figure 9: headline \"speedup\"");
    t.setHeader({"scheme", "ipc"});
    t.addRow({"none", "1.000"});
    t.addRow({"cachecraft", "0.973"});

    const std::string json = t.renderJson();
    std::string err;
    ASSERT_TRUE(jsonValidate(json, &err)) << err;
    EXPECT_NE(json.find("\\\"speedup\\\""), std::string::npos);
    EXPECT_NE(json.find("cachecraft"), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "0.973"), 1u);
}

} // namespace
} // namespace cachecraft
