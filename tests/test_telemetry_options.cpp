/**
 * @file
 * Tests for the shared TelemetryOptions knob parser: every profiling
 * flag round-trips through both surfaces (JSON campaign-spec values
 * and CLI flag text), bad values reject with stable diagnostics, the
 * implied-gate couplings hold (profile_interval implies profile,
 * reuse_max_assoc implies reuse_profile), and campaign specs accept
 * exactly the same knob set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "telemetry/options.hpp"

namespace cachecraft::telemetry {
namespace {

TEST(TelemetryKnobs, NamesAreSortedAndComplete)
{
    const auto names = telemetryKnobNames();
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
        TelemetryOptions options;
        std::string error;
        EXPECT_TRUE(applyTelemetryKnob(options, c.knob,
                                       JsonValue(true), &error))
            << c.knob << ": " << error;
        EXPECT_TRUE(options.*c.field) << c.knob;
        EXPECT_TRUE(applyTelemetryKnob(options, c.knob,
                                       JsonValue(false), &error));
        EXPECT_FALSE(options.*c.field) << c.knob;

        // A number is not a boolean, whatever its value.
        EXPECT_FALSE(applyTelemetryKnob(options, c.knob,
                                        JsonValue(1.0), &error));
        EXPECT_EQ(error, "wants a boolean") << c.knob;
    }
}

TEST(TelemetryKnobs, CountKnobsRoundTrip)
{
    TelemetryOptions options;
    std::string error;

    ASSERT_TRUE(applyTelemetryKnob(options, "sample_interval",
                                   JsonValue(2048.0), &error))
        << error;
    EXPECT_EQ(options.sampleInterval, 2048u);

    ASSERT_TRUE(applyTelemetryKnob(options, "flight_capacity",
                                   JsonValue(4096.0), &error));
    EXPECT_EQ(options.flightCapacity, 4096u);
}

TEST(TelemetryKnobs, IntervalKnobsImplyTheirGate)
{
    TelemetryOptions options;
    std::string error;
    EXPECT_FALSE(options.profileEnabled);
    ASSERT_TRUE(applyTelemetryKnob(options, "profile_interval",
                                   JsonValue(1024.0), &error));
    EXPECT_TRUE(options.profileEnabled);
    EXPECT_EQ(options.profileInterval, 1024u);

    EXPECT_FALSE(options.reuseProfileEnabled);
    ASSERT_TRUE(applyTelemetryKnob(options, "reuse_max_assoc",
                                   JsonValue(16.0), &error));
    EXPECT_TRUE(options.reuseProfileEnabled);
    EXPECT_EQ(options.reuseMaxAssoc, 16u);
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
            TelemetryOptions options;
            std::string error;
            EXPECT_FALSE(
                applyTelemetryKnob(options, c.knob, bad, &error))
                << c.knob;
            EXPECT_EQ(error, c.diagnostic) << c.knob;
        }
    }
}

TEST(TelemetryKnobs, FlightCapacityIsBounded)
{
    // The ring is allocated eagerly, so an absurd capacity must fail
    // here, at parse time, rather than as std::bad_alloc in the run.
    TelemetryOptions options;
    std::string error;
    EXPECT_TRUE(applyTelemetryKnob(
        options, "flight_capacity",
        JsonValue(static_cast<double>(kMaxFlightCapacity)), &error))
        << error;
    EXPECT_EQ(options.flightCapacity, kMaxFlightCapacity);
    for (const double bad :
         {static_cast<double>(kMaxFlightCapacity) + 1.0, 1e11, 1e30}) {
        TelemetryOptions untouched;
        EXPECT_FALSE(applyTelemetryKnob(untouched, "flight_capacity",
                                        JsonValue(bad), &error))
            << bad;
        EXPECT_EQ(error, "wants at most 67108864") << bad;
        EXPECT_EQ(untouched.flightCapacity,
                  TelemetryOptions{}.flightCapacity);
    }
    EXPECT_FALSE(applyTelemetryKnobText(options, "flight_capacity",
                                        "100000000000", &error));
    EXPECT_EQ(error, "wants at most 67108864");
}

TEST(TelemetryKnobs, RejectionLeavesOptionsUntouched)
{
    TelemetryOptions options;
    options.sampleInterval = 777;
    std::string error;
    EXPECT_FALSE(applyTelemetryKnob(options, "sample_interval",
                                    JsonValue(-1.0), &error));
    EXPECT_EQ(options.sampleInterval, 777u);
}

TEST(TelemetryKnobs, UnknownKnobRejects)
{
    TelemetryOptions options;
    std::string error;
    EXPECT_FALSE(applyTelemetryKnob(options, "warp_speed",
                                    JsonValue(true), &error));
    EXPECT_EQ(error, "unknown telemetry knob");
}

TEST(TelemetryKnobText, ParsesBooleansAndDigits)
{
    TelemetryOptions options;
    std::string error;
    ASSERT_TRUE(
        applyTelemetryKnobText(options, "host_profile", "true", &error))
        << error;
    EXPECT_TRUE(options.hostProfileEnabled);
    ASSERT_TRUE(applyTelemetryKnobText(options, "host_profile", "false",
                                       &error));
    EXPECT_FALSE(options.hostProfileEnabled);
    ASSERT_TRUE(applyTelemetryKnobText(options, "flight_capacity",
                                       "65536", &error));
    EXPECT_EQ(options.flightCapacity, 65536u);
}

TEST(TelemetryKnobText, RejectsNonValues)
{
    for (const char *bad : {"", "yes", "12x", "-3", "1.5", "True"}) {
        TelemetryOptions options;
        std::string error;
        EXPECT_FALSE(applyTelemetryKnobText(options, "host_profile",
                                            bad, &error))
            << bad;
        EXPECT_EQ(error, "wants a boolean or non-negative integer")
            << bad;
    }
}

TEST(TelemetryKnobText, DigitsStillValidatePerKnob)
{
    // Text "0" parses as a number but sample_interval wants > 0: the
    // text path must share the JSON path's validation verbatim.
    TelemetryOptions options;
    std::string error;
    EXPECT_FALSE(applyTelemetryKnobText(options, "sample_interval", "0",
                                        &error));
    EXPECT_EQ(error, "wants a positive cycle interval");
    // And booleans don't accept digit text.
    EXPECT_FALSE(
        applyTelemetryKnobText(options, "host_profile", "1", &error));
    EXPECT_EQ(error, "wants a boolean");
}

TEST(TelemetryKnobs, CampaignSpecAcceptsEveryTelemetryKnob)
{
    const auto known = campaign::knownKnobs();
    for (const std::string &knob : telemetryKnobNames()) {
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

} // namespace
} // namespace cachecraft::telemetry
