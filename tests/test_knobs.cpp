/**
 * @file
 * Tests for the run-point knob table: every knob round-trips through
 * both surfaces (JSON campaign-spec values and CLI flag text) to the
 * same point and the same diagnostic, bad values reject with stable
 * diagnostics, the implied-gate couplings hold (profile_interval
 * implies profile, reuse_max_assoc implies reuse_profile), campaign
 * specs accept exactly the table's knob set, and the strict number
 * parsers and the whole-config check behave.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "core/knobs.hpp"
#include "telemetry/flight_recorder.hpp"

namespace cachecraft::telemetry {
namespace {

/** A default run point for the knobs to write. */
struct Point
{
    SystemConfig config;
    WorkloadKind workload = WorkloadKind::kStreaming;
    WorkloadParams params;

    KnobTarget target() { return {config, workload, params}; }
    /** Every knob's value in text form, in table order. */
    std::vector<std::string>
    values()
    {
        std::vector<std::string> out;
        for (const Knob &knob : knobTable())
            out.push_back(knob.get(target()));
        return out;
    }
};

/** Apply a telemetry knob from JSON. */
bool
applyTelemetry(Point &p, const std::string &knob, const JsonValue &v,
               std::string *error)
{
    return applyKnob(p.target(), knob, v, error, KnobGroup::kTelemetry);
}

/** Apply a telemetry knob from CLI text. */
bool
applyTelemetryText(Point &p, const std::string &knob,
                   const std::string &text, std::string *error)
{
    return applyKnobText(p.target(), knob, text, error,
                       KnobGroup::kTelemetry);
}

TEST(TelemetryKnobs, NamesAreSortedAndComplete)
{
    const auto names = knobNames(KnobGroup::kTelemetry);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const char *knob :
         {"flight_capacity", "flight_recorder", "host_profile",
          "profile", "profile_interval", "reuse_max_assoc",
          "reuse_profile", "sample_interval"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), knob),
                  names.end())
            << knob;
    }
    EXPECT_EQ(names.size(), 8u);
}

TEST(TelemetryKnobs, BooleanGatesRoundTrip)
{
    struct Case
    {
        const char *knob;
        bool TelemetryOptions::*field;
    };
    const Case cases[] = {
        {"profile", &TelemetryOptions::profileEnabled},
        {"flight_recorder", &TelemetryOptions::flightRecorderEnabled},
        {"reuse_profile", &TelemetryOptions::reuseProfileEnabled},
        {"host_profile", &TelemetryOptions::hostProfileEnabled},
    };
    for (const Case &c : cases) {
        Point p;
        std::string error;
        EXPECT_TRUE(applyTelemetry(p, c.knob, JsonValue(true), &error))
            << c.knob << ": " << error;
        EXPECT_TRUE(p.config.telemetry.*c.field) << c.knob;
        EXPECT_TRUE(applyTelemetry(p, c.knob, JsonValue(false), &error));
        EXPECT_FALSE(p.config.telemetry.*c.field) << c.knob;

        // A number is not a boolean, whatever its value.
        EXPECT_FALSE(applyTelemetry(p, c.knob, JsonValue(1.0), &error));
        EXPECT_EQ(error, "wants a boolean") << c.knob;
    }
}

TEST(TelemetryKnobs, CountKnobsRoundTrip)
{
    Point p;
    std::string error;

    ASSERT_TRUE(applyTelemetry(p, "sample_interval", JsonValue(2048.0),
                               &error))
        << error;
    EXPECT_EQ(p.config.telemetry.sampleInterval, 2048u);

    ASSERT_TRUE(applyTelemetry(p, "flight_capacity", JsonValue(4096.0),
                               &error));
    EXPECT_EQ(p.config.telemetry.flightCapacity, 4096u);
}

TEST(TelemetryKnobs, IntervalKnobsImplyTheirGate)
{
    Point p;
    std::string error;
    EXPECT_FALSE(p.config.telemetry.profileEnabled);
    ASSERT_TRUE(applyTelemetry(p, "profile_interval", JsonValue(1024.0),
                               &error));
    EXPECT_TRUE(p.config.telemetry.profileEnabled);
    EXPECT_EQ(p.config.telemetry.profileInterval, 1024u);

    EXPECT_FALSE(p.config.telemetry.reuseProfileEnabled);
    ASSERT_TRUE(applyTelemetry(p, "reuse_max_assoc", JsonValue(16.0),
                               &error));
    EXPECT_TRUE(p.config.telemetry.reuseProfileEnabled);
    EXPECT_EQ(p.config.telemetry.reuseMaxAssoc, 16u);
}

TEST(TelemetryKnobs, RejectsBadCounts)
{
    struct Case
    {
        const char *knob;
        const char *diagnostic;
    };
    const Case cases[] = {
        {"sample_interval", "wants a positive cycle interval"},
        {"profile_interval", "wants a positive cycle interval"},
        {"flight_capacity", "wants a positive record capacity"},
        {"reuse_max_assoc", "wants a positive associativity"},
    };
    for (const Case &c : cases) {
        for (const JsonValue &bad :
             {JsonValue(0.0), JsonValue(-4.0), JsonValue(2.5),
              JsonValue(true), JsonValue(std::string("lots"))}) {
            Point p;
            std::string error;
            EXPECT_FALSE(applyTelemetry(p, c.knob, bad, &error))
                << c.knob;
            EXPECT_EQ(error, c.diagnostic) << c.knob;
        }
    }
}

TEST(TelemetryKnobs, FlightCapacityIsBounded)
{
    // The ring is allocated eagerly, so an absurd capacity must fail
    // here, at parse time, rather than as std::bad_alloc in the run.
    Point p;
    std::string error;
    EXPECT_TRUE(applyTelemetry(
        p, "flight_capacity",
        JsonValue(static_cast<double>(kMaxFlightCapacity)), &error))
        << error;
    EXPECT_EQ(p.config.telemetry.flightCapacity, kMaxFlightCapacity);
    for (const double bad :
         {static_cast<double>(kMaxFlightCapacity) + 1.0, 1e11, 1e30}) {
        Point untouched;
        EXPECT_FALSE(applyTelemetry(untouched, "flight_capacity",
                                    JsonValue(bad), &error))
            << bad;
        EXPECT_EQ(error, "wants at most 67108864") << bad;
        EXPECT_EQ(untouched.config.telemetry.flightCapacity,
                  TelemetryOptions{}.flightCapacity);
    }
    EXPECT_FALSE(applyTelemetryText(p, "flight_capacity",
                                    "100000000000", &error));
    EXPECT_EQ(error, "wants at most 67108864");
}

TEST(TelemetryKnobs, RejectionLeavesOptionsUntouched)
{
    Point p;
    p.config.telemetry.sampleInterval = 777;
    std::string error;
    EXPECT_FALSE(applyTelemetry(p, "sample_interval", JsonValue(-1.0),
                                &error));
    EXPECT_EQ(p.config.telemetry.sampleInterval, 777u);
}

TEST(TelemetryKnobs, UnknownKnobRejects)
{
    Point p;
    std::string error;
    EXPECT_FALSE(applyTelemetry(p, "warp_speed", JsonValue(true),
                                &error));
    EXPECT_EQ(error, "unknown telemetry knob");
    // A knob of another group is no telemetry knob either.
    EXPECT_FALSE(applyTelemetry(p, "gto", JsonValue(true), &error));
    EXPECT_EQ(error, "unknown telemetry knob");
    EXPECT_FALSE(applyKnob(p.target(), "warp_speed", JsonValue(true),
                         &error));
    EXPECT_EQ(error, "unknown knob");
}

TEST(TelemetryKnobText, ParsesBooleansAndDigits)
{
    Point p;
    std::string error;
    ASSERT_TRUE(applyTelemetryText(p, "host_profile", "true", &error))
        << error;
    EXPECT_TRUE(p.config.telemetry.hostProfileEnabled);
    ASSERT_TRUE(applyTelemetryText(p, "host_profile", "false", &error));
    EXPECT_FALSE(p.config.telemetry.hostProfileEnabled);
    ASSERT_TRUE(applyTelemetryText(p, "flight_capacity", "65536",
                                   &error));
    EXPECT_EQ(p.config.telemetry.flightCapacity, 65536u);
}

TEST(TelemetryKnobText, RejectsNonValues)
{
    for (const char *bad : {"", "yes", "12x", "-3", "1.5", "True"}) {
        Point p;
        std::string error;
        EXPECT_FALSE(applyTelemetryText(p, "host_profile", bad, &error))
            << bad;
        EXPECT_EQ(error, "wants a boolean or non-negative integer")
            << bad;
    }
}

TEST(TelemetryKnobText, DigitsStillValidatePerKnob)
{
    // Text "0" parses as a number but sample_interval wants > 0: the
    // text path must share the JSON path's validation verbatim.
    Point p;
    std::string error;
    EXPECT_FALSE(applyTelemetryText(p, "sample_interval", "0", &error));
    EXPECT_EQ(error, "wants a positive cycle interval");
    // And booleans don't accept digit text.
    EXPECT_FALSE(applyTelemetryText(p, "host_profile", "1", &error));
    EXPECT_EQ(error, "wants a boolean");
}

TEST(TelemetryKnobs, CampaignSpecAcceptsEveryTelemetryKnob)
{
    const auto known = campaign::knownKnobs();
    for (const std::string &knob : knobNames(KnobGroup::kTelemetry)) {
        EXPECT_NE(std::find(known.begin(), known.end(), knob),
                  known.end())
            << knob;
    }
}

TEST(TelemetryKnobs, CampaignSpecRoutesValuesThroughSharedParser)
{
    const std::string spec_text = R"({
        "name": "t",
        "base": {"host_profile": true, "profile_interval": 2048},
        "grid": {"workload": ["streaming"]}
    })";
    std::string error;
    const auto spec = campaign::parseCampaignSpec(spec_text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    ASSERT_EQ(spec->points.size(), 1u);
    const auto &telemetry = spec->points[0].config.telemetry;
    EXPECT_TRUE(spec->points[0].expandError.empty())
        << spec->points[0].expandError;
    EXPECT_TRUE(telemetry.hostProfileEnabled);
    EXPECT_TRUE(telemetry.profileEnabled);
    EXPECT_EQ(telemetry.profileInterval, 2048u);
}

TEST(TelemetryKnobs, CampaignSpecSurfacesBadTelemetryValues)
{
    const std::string spec_text = R"({
        "name": "t",
        "grid": {"host_profile": [1]}
    })";
    std::string error;
    const auto spec = campaign::parseCampaignSpec(spec_text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    ASSERT_EQ(spec->points.size(), 1u);
    EXPECT_NE(spec->points[0].expandError.find("wants a boolean"),
              std::string::npos)
        << spec->points[0].expandError;
}

TEST(Knobs, ListIsPinned)
{
    // What `cachecraft_sweep --list-knobs` prints: adding, renaming or
    // dropping a knob is a visible interface change.
    const std::vector<std::string> expected = {
        "chunk_granularity", "co_located_layout", "codec",
        "flight_capacity",   "flight_recorder",   "footprint_mib",
        "gto",               "host_profile",      "l2_kib",
        "l2_whole_line",     "mem_insts",         "mrc_kib",
        "profile",           "profile_interval",  "reuse_max_assoc",
        "reuse_profile",     "sample_interval",   "scheme",
        "seed",              "sms",               "system_seed",
        "warps",             "workload",          "writeback_mrc"};
    EXPECT_EQ(campaign::knownKnobs(), expected);
    EXPECT_EQ(knobNames(KnobGroup::kWorkload).size() +
                  knobNames(KnobGroup::kSystem).size(),
              16u);
    EXPECT_EQ(knobNames(KnobGroup::kTelemetry).size(), 8u);
}

TEST(Knobs, EveryEntryIsComplete)
{
    for (const Knob &knob : knobTable()) {
        EXPECT_FALSE(knob.diagnostic.empty()) << knob.name;
        EXPECT_FALSE(knob.help.empty()) << knob.name;
        EXPECT_NE(knob.set, nullptr) << knob.name;
        EXPECT_NE(knob.get, nullptr) << knob.name;
        if (knob.type == KnobType::kCount) {
            EXPECT_LE(knob.min, knob.max) << knob.name;
        }
        if (knob.type == KnobType::kName) {
            EXPECT_FALSE(knob.choices.empty()) << knob.name;
        }
        // A valueless flag must set a value the knob takes.
        if (!knob.flagValue.empty()) {
            Point p;
            std::string error;
            EXPECT_TRUE(applyKnobText(p.target(), knob.name,
                                      knob.flagValue, &error))
                << knob.name << ": " << error;
        }
    }
}

TEST(Knobs, JsonAndTextFormsAgree)
{
    // Every knob, fed the same value as a JSON value and as CLI text,
    // must reach the same point (all 24 knobs read back equal) or the
    // same diagnostic. Strings are left out for boolean knobs: text
    // that is neither a boolean nor a number gets the lexical
    // diagnostic pinned by TelemetryKnobText.RejectsNonValues.
    struct Form
    {
        JsonValue json;
        std::string text;
    };
    std::vector<Form> forms = {
        {JsonValue(true), "true"},
        {JsonValue(false), "false"},
        {JsonValue(std::string("lots")), "lots"},
        {JsonValue(std::string("bogus")), "bogus"},
    };
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
          std::uint64_t{16}, std::uint64_t{4096},
          std::uint64_t{kMaxFlightCapacity},
          std::uint64_t{kMaxFlightCapacity} + 1,
          std::uint64_t{1} << 32, std::uint64_t{1} << 44,
          std::uint64_t{1} << 53}) {
        forms.push_back(
            {JsonValue(static_cast<double>(n)), std::to_string(n)});
    }
    for (const Knob &knob : knobTable()) {
        for (const std::string &name : knob.choices) {
            forms.push_back({JsonValue(name), name});
        }
    }

    for (const Knob &knob : knobTable()) {
        for (const Form &form : forms) {
            if (knob.type == KnobType::kBool && form.json.isString())
                continue;
            Point from_json;
            Point from_text;
            std::string json_error;
            std::string text_error;
            const bool json_ok = applyKnob(
                from_json.target(), knob.name, form.json, &json_error);
            const bool text_ok = applyKnobText(
                from_text.target(), knob.name, form.text, &text_error);
            EXPECT_EQ(json_ok, text_ok) << knob.name << " " << form.text;
            EXPECT_EQ(json_error, text_error)
                << knob.name << " " << form.text;
            EXPECT_EQ(from_json.values(), from_text.values())
                << knob.name << " " << form.text;
            // A rejected value leaves the point as it was.
            if (!json_ok) {
                EXPECT_EQ(from_json.values(), Point().values())
                    << knob.name << " " << form.text;
            }
        }
    }
}

TEST(Knobs, CountsRejectOverflowAfterScaling)
{
    // 2^44 MiB is 2^64 bytes: it used to wrap to a zero footprint.
    // The size knobs now stop at a real bound well before that.
    Point p;
    std::string error;
    EXPECT_FALSE(applyKnobText(p.target(), "footprint_mib",
                             "17592186044416", &error));
    EXPECT_EQ(error, "wants at most 1024");
    EXPECT_FALSE(applyKnobText(p.target(), "l2_kib",
                             "18014398509481984", &error));
    EXPECT_EQ(error, "wants at most 65536");
    // Unsigned fields stop at their width instead of wrapping to 0.
    EXPECT_FALSE(applyKnobText(p.target(), "warps", "4294967296", &error));
    EXPECT_EQ(error, "wants at most 4294967295");
    // 64-bit seeds take the whole range, and nothing past it.
    ASSERT_TRUE(applyKnobText(p.target(), "seed", "18446744073709551615",
                            &error))
        << error;
    EXPECT_EQ(p.params.seed, std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(applyKnobText(p.target(), "seed", "18446744073709551616",
                             &error));
    EXPECT_EQ(error, "wants at most 18446744073709551615");
    EXPECT_FALSE(applyKnobText(p.target(), "seed", "-1", &error));
    EXPECT_EQ(error, "wants a non-negative integer");
}

TEST(Knobs, SizeKnobsStopAtARealBound)
{
    // Each size knob takes its bound and nothing past it, so a huge
    // size fails while parsing instead of in the allocator.
    const std::pair<const char *, std::uint64_t> bounds[] = {
        {"footprint_mib", 1024}, {"sms", 1024},   {"l2_kib", 65536},
        {"mrc_kib", 65536},      {"reuse_max_assoc", 4096}};
    for (const auto &[name, bound] : bounds) {
        Point p;
        std::string error;
        EXPECT_TRUE(applyKnobText(p.target(), name,
                                  std::to_string(bound), &error))
            << name << ": " << error;
        EXPECT_FALSE(applyKnobText(p.target(), name,
                                   std::to_string(bound + 1), &error))
            << name;
        EXPECT_EQ(error, "wants at most " + std::to_string(bound))
            << name;
    }
}

TEST(Knobs, NamesKeepTheirDiagnostic)
{
    Point p;
    std::string error;
    EXPECT_FALSE(applyKnob(p.target(), "scheme",
                         JsonValue(std::string("bogus")), &error));
    EXPECT_EQ(error, "unknown scheme \"bogus\"");
    EXPECT_FALSE(applyKnobText(p.target(), "codec", "hamming", &error));
    EXPECT_EQ(error, "unknown codec \"hamming\"");
    ASSERT_TRUE(applyKnobText(p.target(), "workload", "spmv", &error));
    EXPECT_EQ(p.workload, WorkloadKind::kSpmv);
}

TEST(Knobs, HelpShowsFlagsAndDefaults)
{
    Point p;
    p.params.numWarps = 256;
    constexpr std::string_view names[] = {"warps", "sample_interval",
                                          "chunk_granularity", "scheme",
                                          "system_seed"};
    const std::string workload =
        knobHelp(names, KnobGroup::kWorkload, p.target());
    EXPECT_NE(workload.find("--warps N"), std::string::npos) << workload;
    EXPECT_NE(workload.find("(default 256)"), std::string::npos);
    const std::string system =
        knobHelp(names, KnobGroup::kSystem, p.target());
    EXPECT_NE(system.find("--no-r1"), std::string::npos) << system;
    EXPECT_NE(system.find("cachecraft (default cachecraft)"),
              std::string::npos)
        << system;
    // A spec-only knob has no flag to document.
    EXPECT_EQ(system.find("seed"), std::string::npos) << system;
    const std::string telemetry =
        knobHelp(names, KnobGroup::kTelemetry, p.target());
    EXPECT_NE(telemetry.find("(default: off)"), std::string::npos)
        << telemetry;
}

TEST(StrictNumbers, CountsAreWholeUnsignedDecimals)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("42"), 42u);
    EXPECT_EQ(parseCount("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    for (const char *bad : {"", "abc", "12x", "-1", "+1", " 1", "1 ",
                            "0x10", "1.0", "1e3",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseCount(bad).has_value()) << bad;
    }
}

TEST(StrictNumbers, DecimalsAreUnsignedAndFinite)
{
    EXPECT_EQ(parseDecimal("0"), 0.0);
    EXPECT_EQ(parseDecimal("2.5"), 2.5);
    EXPECT_EQ(parseDecimal(".5"), 0.5);
    EXPECT_EQ(parseDecimal("60"), 60.0);
    for (const char *bad : {"", ".", "abc", "-1", "+1", "1e3", "1.2.3",
                            "inf", "nan", " 1", "0x1p3"}) {
        EXPECT_FALSE(parseDecimal(bad).has_value()) << bad;
    }
    EXPECT_FALSE(parseDecimal(std::string(400, '9')).has_value());
}

TEST(ConfigCheck, AcceptsTheDefaultsAndNamesTheBadCache)
{
    EXPECT_EQ(SystemConfig().check(), "");

    SystemConfig l2;
    l2.l2.cache.sizeBytes = 3 * 1024;
    EXPECT_EQ(l2.check(), "L2 cache size 3072 B must be divisible by "
                          "line size * assoc (2048 B)");

    SystemConfig mrc;
    mrc.mrc.sizeBytes = 3 * 1024;
    EXPECT_NE(mrc.check().find("MRC cache"), std::string::npos)
        << mrc.check();
    // Only the MRC schemes build an MRC.
    mrc.scheme = SchemeKind::kInlineNaive;
    EXPECT_EQ(mrc.check(), "");

    SystemConfig sets;
    sets.l2.cache.sizeBytes = 3 * 2048;
    EXPECT_NE(sets.check().find("power-of-two number of sets"),
              std::string::npos)
        << sets.check();

    SystemConfig sms;
    sms.numSms = 0;
    EXPECT_EQ(sms.check(), "numSms must be positive");
}

} // namespace
} // namespace cachecraft::telemetry
