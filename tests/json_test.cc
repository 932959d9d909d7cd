/**
 * @file
 * Unit tests for the minimal JSON parser in util/json, which backs the
 * trace_summarize tool and the trace round-trip tests, and for the
 * jsonNumber writer every JSON emitter shares.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "util/json.h"

namespace fedgpo {
namespace util {
namespace {

JsonValue
mustParse(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, v, &error)) << error;
    return v;
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(mustParse("null").isNull());
    EXPECT_TRUE(mustParse("true").asBool());
    EXPECT_FALSE(mustParse("false").asBool());
    EXPECT_DOUBLE_EQ(mustParse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(mustParse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(mustParse("\"hi\"").asString(), "hi");
}

TEST(JsonParse, NumberRoundTripsHexfloatPrecision)
{
    // %.17g output must survive a parse bit-exactly; this is what the
    // trace writer relies on.
    const double x = 0.1 + 0.2;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    EXPECT_EQ(mustParse(buf).asNumber(), x);
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(mustParse("\"a\\\"b\\\\c\\nd\\te\"").asString(), "a\"b\\c\nd\te");
    EXPECT_EQ(mustParse("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

TEST(JsonParse, Arrays)
{
    const JsonValue v = mustParse("[1, \"two\", [3], {\"k\": 4}, null]");
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.at(0).asNumber(), 1.0);
    EXPECT_EQ(v.at(1).asString(), "two");
    EXPECT_DOUBLE_EQ(v.at(2).at(0).asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(v.at(3).at("k").asNumber(), 4.0);
    EXPECT_TRUE(v.at(4).isNull());
}

TEST(JsonParse, Objects)
{
    const JsonValue v =
        mustParse("{\"round\": 7, \"nested\": {\"acc\": 0.5}, \"ids\": [1,2]}");
    ASSERT_TRUE(v.isObject());
    EXPECT_TRUE(v.has("round"));
    EXPECT_FALSE(v.has("absent"));
    EXPECT_DOUBLE_EQ(v.at("round").asNumber(), 7.0);
    EXPECT_DOUBLE_EQ(v.at("nested").at("acc").asNumber(), 0.5);
    EXPECT_EQ(v.at("ids").size(), 2u);
}

TEST(JsonParse, MissingKeyYieldsNullSentinel)
{
    const JsonValue v = mustParse("{\"a\": 1}");
    EXPECT_TRUE(v.at("missing").isNull());
    // Chained lookups through a miss stay safe.
    EXPECT_TRUE(v.at("missing").at("deeper").isNull());
    EXPECT_DOUBLE_EQ(v.at("missing").asNumber(), 0.0);
}

TEST(JsonParse, OutOfRangeIndexYieldsNullSentinel)
{
    const JsonValue v = mustParse("[1]");
    EXPECT_TRUE(v.at(5).isNull());
}

TEST(JsonParse, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("", v, &error));
    EXPECT_FALSE(JsonValue::parse("{", v, &error));
    EXPECT_FALSE(JsonValue::parse("[1,]", v, &error));
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", v, &error));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", v, &error));
    EXPECT_FALSE(JsonValue::parse("\"bad \\x escape\"", v, &error));
    EXPECT_FALSE(JsonValue::parse("tru", v, &error));
    EXPECT_FALSE(JsonValue::parse("1.2.3", v, &error));
    EXPECT_FALSE(JsonValue::parse("-", v, nullptr)); // error sink optional
}

TEST(JsonParse, RejectsTrailingGarbage)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("{} extra", v, &error));
    EXPECT_FALSE(JsonValue::parse("1 2", v, &error));
}

TEST(JsonParse, DepthCapStopsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += '[';
    for (int i = 0; i < 200; ++i)
        deep += ']';
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse(deep, v, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonParse, WhitespaceTolerant)
{
    const JsonValue v = mustParse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
    EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, IntegerTokensRoundTripLosslessly)
{
    // 2^53 + 1 is not representable as a double; asInt64 must still read
    // it back exactly (byte counters in the round traces rely on this).
    const JsonValue v =
        mustParse("{\"bytes\":9007199254740993,\"neg\":-42}");
    EXPECT_TRUE(v.at("bytes").isInteger());
    EXPECT_EQ(v.at("bytes").asInt64(), 9007199254740993LL);
    EXPECT_NE(static_cast<std::int64_t>(v.at("bytes").asNumber()),
              9007199254740993LL)
        << "the double path alone must not be able to represent this";
    EXPECT_EQ(v.at("neg").asInt64(), -42);
}

TEST(JsonParse, NonIntegerTokensAreNotIntegers)
{
    const JsonValue v =
        mustParse("{\"a\":1.5,\"b\":1e3,\"c\":2.0,\"d\":7}");
    EXPECT_FALSE(v.at("a").isInteger());
    EXPECT_FALSE(v.at("b").isInteger());
    EXPECT_FALSE(v.at("c").isInteger());
    EXPECT_TRUE(v.at("d").isInteger());
    // asInt64 still degrades gracefully for doubles and non-numbers.
    EXPECT_EQ(v.at("a").asInt64(), 1);
    EXPECT_EQ(v.at("missing").asInt64(), 0);
}

TEST(JsonNumber, RoundTripsExactlyAndWritesNonFiniteAsNull)
{
    for (const double x :
         {0.1 + 0.2, -0.0, 1e-300, 4.9406564584124654e-324, 1.0 / 3.0,
          -1.7976931348623157e308, 123456789.0, 0x1.7ae147ae147aep-4}) {
        const JsonValue v = mustParse(jsonNumber(x));
        ASSERT_TRUE(v.isNumber()) << jsonNumber(x);
        EXPECT_EQ(v.asNumber(), x) << jsonNumber(x);
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (const double x :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
        EXPECT_EQ(jsonNumber(x), "null");
        EXPECT_TRUE(mustParse(jsonNumber(x)).isNull());
    }
}

} // namespace
} // namespace util
} // namespace fedgpo
