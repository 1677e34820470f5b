/**
 * @file
 * The shared JSON codec (common/json) against hand-written literals:
 * the expected texts below are spelled out, not produced by the
 * codec's own writer, so a writer bug and a matching reader bug cannot
 * cancel out.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"

namespace mnpu
{
namespace
{

/** What one append function writes for @p value on its own. */
template <typename T>
std::string
written(void (*append)(std::string &, T), T value)
{
    std::string out;
    append(out, value);
    return out;
}

bool
parses(const std::string &text)
{
    json::Value value;
    return json::parse(text, value);
}

/** The quoted escape the writer owes each byte below 0x20. */
const char *const kControlEscapes[32] = {
    "\"\\u0000\"", "\"\\u0001\"", "\"\\u0002\"", "\"\\u0003\"",
    "\"\\u0004\"", "\"\\u0005\"", "\"\\u0006\"", "\"\\u0007\"",
    "\"\\u0008\"", "\"\\t\"",     "\"\\n\"",     "\"\\u000b\"",
    "\"\\u000c\"", "\"\\r\"",     "\"\\u000e\"", "\"\\u000f\"",
    "\"\\u0010\"", "\"\\u0011\"", "\"\\u0012\"", "\"\\u0013\"",
    "\"\\u0014\"", "\"\\u0015\"", "\"\\u0016\"", "\"\\u0017\"",
    "\"\\u0018\"", "\"\\u0019\"", "\"\\u001a\"", "\"\\u001b\"",
    "\"\\u001c\"", "\"\\u001d\"", "\"\\u001e\"", "\"\\u001f\"",
};

TEST(JsonCodec, EveryByteEscapesAndParsesBack)
{
    for (int code = 0; code < 256; ++code) {
        const std::string byte(1, static_cast<char>(code));
        std::string expected =
            code < 0x20 ? kControlEscapes[code] : "\"" + byte + "\"";
        if (code == '"' || code == '\\')
            expected = "\"\\" + byte + "\"";
        EXPECT_EQ(written<std::string_view>(json::appendString, byte),
                  expected)
            << "byte " << code;

        json::Value value;
        std::string decoded;
        ASSERT_TRUE(json::parse(expected, value) && value.get(decoded))
            << "byte " << code;
        EXPECT_EQ(decoded, byte) << "byte " << code;

        // Raw, a control byte is not JSON; every other byte but the
        // two that need escaping passes through.
        const bool raw_ok = code >= 0x20 && code != '"' && code != '\\';
        EXPECT_EQ(parses("\"" + byte + "\""), raw_ok) << "byte " << code;
    }
}

TEST(JsonCodec, ShortEscapesAndUnicodeLimit)
{
    json::Value value;
    std::string text;
    ASSERT_TRUE(json::parse("\"\\b\\f\\/\\u00e9\\u00FF\"", value) &&
                value.get(text));
    EXPECT_EQ(text, "\b\f/\xe9\xff");
    // Above 0xFF, not hex, three digits, a sign, an unknown escape, and
    // an escape at the end.
    for (const char *bad : {"\"\\u0100\"", "\"\\uZZZZ\"", "\"\\u00f\"",
                            "\"\\u+0ff\"", "\"\\x41\"", "\"\\"})
        EXPECT_FALSE(parses(bad)) << bad;
}

TEST(JsonCodec, DoublesAtSeventeenDigitsAndNullForNonFinite)
{
    const std::pair<double, const char *> exact[] = {
        {1.0 / 3.0, "0.33333333333333331"},
        {5e-324, "4.9406564584124654e-324"},
        {-0.0, "-0"},
        {1e308, "1e+308"},
        {0.5, "0.5"},
    };
    for (const auto &[number, text] : exact) {
        EXPECT_EQ(written(json::appendDouble, number), text);
        json::Value value;
        double back = 1;
        ASSERT_TRUE(json::parse(text, value) && value.get(back)) << text;
        // Bit equality: -0 must come back with its sign.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(number))
            << text;
    }
    for (double number : {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()})
        EXPECT_EQ(written(json::appendDouble, number), "null");

    json::Value value;
    double out = 0;
    ASSERT_TRUE(json::parse("null", value) && value.get(out));
    EXPECT_TRUE(std::isnan(out));
    ASSERT_TRUE(json::parse("1E308", value) && value.get(out));
    EXPECT_EQ(out, 1e308);
    ASSERT_TRUE(json::parse("1e400", value)); // valid JSON ...
    EXPECT_FALSE(value.get(out));             // ... but not a double
    ASSERT_TRUE(json::parse("\"1.5\"", value));
    EXPECT_FALSE(value.get(out)); // a string is not a number
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "Infinity", "+1",
                            "01", "1.", ".5", "1e", "-", "0x10"})
        EXPECT_FALSE(parses(bad)) << bad;
}

TEST(JsonCodec, U64ReadsExactlyAndRejectsOutOfRange)
{
    const std::pair<std::uint64_t, const char *> exact[] = {
        {0, "0"},
        {(1ULL << 53) + 1, "9007199254740993"},
        {UINT64_MAX, "18446744073709551615"},
    };
    json::Value value;
    for (const auto &[number, text] : exact) {
        EXPECT_EQ(written(json::appendU64, number), text);
        std::uint64_t back = 1;
        ASSERT_TRUE(json::parse(text, value) && value.get(back)) << text;
        EXPECT_EQ(back, number);
    }
    for (const char *bad : {"18446744073709551616", "-1", "-0", "1.0",
                            "1e3", "null"}) {
        std::uint64_t out = 0;
        ASSERT_TRUE(json::parse(bad, value)) << bad;
        EXPECT_FALSE(value.get(out)) << bad;
    }
}

TEST(JsonCodec, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", " ", "[1,2,]", "{\"a\":1,}", "[,1]", "{,}", "{\"a\"}",
          "{\"a\" 1}", "{a:1}", "{\"a\":1} x", "[1] [2]", "1 2", "\"abc",
          "{\"key\":\"abc", "[1", "{\"a\":[1,2}", "tru", "nul", "True",
          "'a'", "[1;2]"})
        EXPECT_FALSE(parses(bad)) << bad;
    EXPECT_TRUE(parses(" \t\r\n{ \"a\" : [ 1 , \"x\" , null ] }\n"));
}

TEST(JsonCodec, DepthCapBoundsNesting)
{
    auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_TRUE(parses(nested(json::kMaxDepth)));
    EXPECT_FALSE(parses(nested(json::kMaxDepth + 1)));
    EXPECT_FALSE(parses(nested(1000000)));
    // Objects count toward the same cap.
    std::string objects;
    for (int i = 0; i <= json::kMaxDepth; ++i)
        objects += "{\"a\":";
    objects += "1" + std::string(json::kMaxDepth + 1, '}');
    EXPECT_FALSE(parses(objects));
}

TEST(JsonCodec, TreeKeepsKindsOrderAndLastDuplicate)
{
    json::Value doc;
    ASSERT_TRUE(json::parse(
        "{\"b\":[true,false,null,\"s\",{}],\"a\":1,\"a\":2}", doc));
    ASSERT_EQ(doc.kind(), json::Value::Kind::Object);
    EXPECT_EQ(doc.keys(), (std::vector<std::string>{"b", "a", "a"}));
    std::uint64_t a = 0;
    ASSERT_TRUE(doc.getField("a", a));
    EXPECT_EQ(a, 2u);
    EXPECT_EQ(doc.find("missing"), nullptr);

    const json::Value *items = doc.find("b");
    ASSERT_NE(items, nullptr);
    ASSERT_EQ(items->items().size(), 5u);
    EXPECT_EQ(items->items()[0].kind(), json::Value::Kind::Bool);
    EXPECT_EQ(items->items()[1].kind(), json::Value::Kind::Bool);
    EXPECT_EQ(items->items()[2].kind(), json::Value::Kind::Null);
    EXPECT_EQ(items->items()[3].kind(), json::Value::Kind::String);
    EXPECT_EQ(items->items()[4].kind(), json::Value::Kind::Object);
    EXPECT_EQ(items->find("a"), nullptr); // not an object

    std::vector<std::uint64_t> numbers;
    ASSERT_TRUE(json::parse("[1,2,3]", doc));
    ASSERT_TRUE(doc.get(numbers));
    EXPECT_EQ(numbers, (std::vector<std::uint64_t>{1, 2, 3}));
    ASSERT_TRUE(json::parse("[1,-2]", doc));
    EXPECT_FALSE(doc.get(numbers)); // one bad element fails the array
}

} // namespace
} // namespace mnpu
