/**
 * @file
 * Edge-case tests for the JsonValue recursive-descent parser in
 * common/json: \uXXXX escapes, exponent and signed-zero number
 * forms, the recursion-depth guard, and strict whole-input
 * consumption (trailing garbage is a parse error). The happy paths
 * are covered in test_diff.cpp; this file pins the corners the
 * campaign/dashboard layers now depend on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace cachecraft {
namespace {

JsonValue
parseOrDie(const std::string &text)
{
    std::string error;
    auto doc = jsonParse(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc ? std::move(*doc) : JsonValue();
}

// --------------------------------------------------------------------
// \uXXXX escapes
// --------------------------------------------------------------------

TEST(JsonParseEdge, UnicodeEscapesDecodeToUtf8)
{
    // One-, two-, and three-byte UTF-8 targets: 'A', e-acute, euro.
    const JsonValue doc =
        parseOrDie(R"(["\u0041", "\u00e9", "\u20ac", "\u0041\u0042"])");
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.asArray().size(), 4u);
    EXPECT_EQ(doc.asArray()[0].asString(), "A");
    EXPECT_EQ(doc.asArray()[1].asString(), "\xC3\xA9");
    EXPECT_EQ(doc.asArray()[2].asString(), "\xE2\x82\xAC");
    EXPECT_EQ(doc.asArray()[3].asString(), "AB");
}

TEST(JsonParseEdge, UnicodeEscapeCaseInsensitiveHexDigits)
{
    EXPECT_EQ(parseOrDie(R"("\u00e9")").asString(), "\xC3\xA9");
    EXPECT_EQ(parseOrDie(R"("\u00E9")").asString(), "\xC3\xA9");
}

TEST(JsonParseEdge, MalformedUnicodeEscapesAreRejected)
{
    std::string error;
    EXPECT_FALSE(jsonParse(R"("\u12g4")", &error).has_value());
    EXPECT_NE(error.find("\\u"), std::string::npos);
    EXPECT_FALSE(jsonParse(R"("\u12)", &error).has_value());
    EXPECT_FALSE(jsonParse(R"("\u")", &error).has_value());
    EXPECT_FALSE(jsonParse(R"("\x41")", &error).has_value());
}

TEST(JsonParseEdge, WriterEscapesRoundTripThroughParser)
{
    // The writer emits \uXXXX for control characters; the parser must
    // bring them back verbatim.
    std::ostringstream os;
    JsonWriter w(os);
    w.value(std::string("ctl\x01\x1f end"));
    const JsonValue doc = parseOrDie(os.str());
    EXPECT_EQ(doc.asString(), "ctl\x01\x1f end");
}

// --------------------------------------------------------------------
// Number forms
// --------------------------------------------------------------------

TEST(JsonParseEdge, ExponentForms)
{
    EXPECT_DOUBLE_EQ(parseOrDie("1e3").asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(parseOrDie("1E3").asNumber(), 1000.0);
    EXPECT_DOUBLE_EQ(parseOrDie("2.5e-2").asNumber(), 0.025);
    EXPECT_DOUBLE_EQ(parseOrDie("7e+2").asNumber(), 700.0);
    EXPECT_DOUBLE_EQ(parseOrDie("-1.25e2").asNumber(), -125.0);
}

TEST(JsonParseEdge, NegativeZeroKeepsItsSign)
{
    const JsonValue doc = parseOrDie("-0.0");
    EXPECT_DOUBLE_EQ(doc.asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(doc.asNumber()));
    EXPECT_TRUE(std::signbit(parseOrDie("-0").asNumber()));
}

TEST(JsonParseEdge, OutOfRangeNumbersSaturateInsteadOfThrowing)
{
    // Valid JSON whose magnitude a double cannot hold: the parser
    // returns +-inf (or 0 on underflow) rather than letting
    // std::out_of_range escape.
    EXPECT_TRUE(std::isinf(parseOrDie("1e999").asNumber()));
    EXPECT_LT(parseOrDie("-1e999").asNumber(), 0.0);
    EXPECT_EQ(parseOrDie("1e-999").asNumber(), 0.0);
    EXPECT_TRUE(jsonValidate("[1e999]"));
}

TEST(JsonParseEdge, MalformedNumbersAreRejected)
{
    for (const char *bad : {"+1", ".5", "1.", "1e", "1e+", "--1",
                            "0x10", "nan", "inf"}) {
        std::string error;
        EXPECT_FALSE(jsonParse(bad, &error).has_value())
            << "accepted " << bad;
    }
}

// --------------------------------------------------------------------
// Depth guard
// --------------------------------------------------------------------

TEST(JsonParseEdge, DeeplyNestedArraysWithinLimitParse)
{
    const int depth = 100;
    std::string text(depth, '[');
    text += "42";
    text.append(depth, ']');
    const JsonValue doc = parseOrDie(text);
    const JsonValue *v = &doc;
    for (int i = 0; i < depth; ++i) {
        ASSERT_TRUE(v->isArray());
        ASSERT_EQ(v->asArray().size(), 1u);
        v = &v->asArray()[0];
    }
    EXPECT_DOUBLE_EQ(v->asNumber(), 42.0);
}

TEST(JsonParseEdge, NestingBeyondTheLimitIsRejectedNotCrashed)
{
    std::string text(5000, '[');
    text += "1";
    text.append(5000, ']');
    std::string error;
    EXPECT_FALSE(jsonParse(text, &error).has_value());
    EXPECT_FALSE(error.empty());
}

// --------------------------------------------------------------------
// Whole-input consumption
// --------------------------------------------------------------------

TEST(JsonParseEdge, TrailingGarbageIsRejected)
{
    std::string error;
    EXPECT_FALSE(jsonParse(R"({"a": 1} x)", &error).has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos);
    EXPECT_FALSE(jsonParse("[1, 2] [3]", &error).has_value());
    EXPECT_FALSE(jsonParse("1 2", &error).has_value());
    EXPECT_FALSE(jsonParse("true false", &error).has_value());
}

TEST(JsonParseEdge, SurroundingWhitespaceIsFine)
{
    EXPECT_TRUE(jsonParse("  \n\t {\"a\": [1]} \r\n ").has_value());
    EXPECT_TRUE(jsonParse("\n42\n").has_value());
}

TEST(JsonParseEdge, EmptyInputIsRejected)
{
    std::string error;
    EXPECT_FALSE(jsonParse("", &error).has_value());
    EXPECT_FALSE(jsonParse("   ", &error).has_value());
}

} // namespace
} // namespace cachecraft
