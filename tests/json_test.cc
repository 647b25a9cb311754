#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "common/check.h"

namespace hypertune {
namespace {

std::string WrittenDouble(double value) {
  char buf[kJsonDoubleMaxChars];
  return std::string(buf, WriteJsonDouble(buf, value));
}

// The number rule spelled with the printf it was first written with.
std::string PrintfDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  if (std::floor(value) == value && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld.0",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

TEST(JsonNumber, WriteJsonDoubleMatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    ASSERT_EQ(WrittenDouble(value), PrintfDouble(value)) << bits;
  }
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e15, 1e15 - 1, -1e15, 1e-320,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(WrittenDouble(value), PrintfDouble(value)) << value;
  }
  EXPECT_EQ(WrittenDouble(-0.0), "0.0");
  EXPECT_EQ(WrittenDouble(2.5), "2.5");
  EXPECT_EQ(Json(2.0).Dump(), "2.0");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).Dump(), "null");
}

TEST(Json, TypePredicates) {
  EXPECT_TRUE(Json().IsNull());
  EXPECT_TRUE(Json(true).IsBool());
  EXPECT_TRUE(Json(1.5).IsNumber());
  EXPECT_TRUE(Json(std::int64_t{3}).IsInt());
  EXPECT_FALSE(Json(1.5).IsInt());
  EXPECT_TRUE(Json("hi").IsString());
  EXPECT_TRUE(Json(JsonArray{}).IsArray());
  EXPECT_TRUE(Json(JsonObject{}).IsObject());
}

TEST(Json, AccessorsAndMismatches) {
  EXPECT_TRUE(Json(true).AsBool());
  EXPECT_DOUBLE_EQ(Json(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Json(std::int64_t{7}).AsDouble(), 7.0);  // widening
  EXPECT_EQ(Json(std::int64_t{7}).AsInt(), 7);
  EXPECT_EQ(Json(4.0).AsInt(), 4);  // exactly-integral double
  EXPECT_THROW(Json(4.5).AsInt(), CheckError);
  EXPECT_THROW(Json("x").AsDouble(), CheckError);
  EXPECT_THROW(Json(1.0).AsString(), CheckError);
}

TEST(Json, ObjectBuildAndLookup) {
  Json json;  // null -> becomes object on Set
  json.Set("a", Json(1));
  json.Set("b", Json("two"));
  json.Set("a", Json(3));  // overwrite
  EXPECT_EQ(json.size(), 2u);
  EXPECT_EQ(json.at("a").AsInt(), 3);
  EXPECT_EQ(json.at("b").AsString(), "two");
  EXPECT_TRUE(json.Has("a"));
  EXPECT_FALSE(json.Has("zz"));
  EXPECT_THROW(json.at("zz"), CheckError);
}

TEST(Json, ArrayBuildAndIndex) {
  Json json;  // null -> becomes array on PushBack
  json.PushBack(Json(1));
  json.PushBack(Json(2));
  EXPECT_EQ(json.size(), 2u);
  EXPECT_EQ(json.at(std::size_t{1}).AsInt(), 2);
  EXPECT_THROW(json.at(std::size_t{5}), CheckError);
}

TEST(Json, DumpCompact) {
  Json json = JsonObject{};
  json.Set("n", Json(std::int64_t{42}));
  json.Set("x", Json(1.5));
  json.Set("s", Json("a\"b"));
  json.Set("flag", Json(false));
  json.Set("list", Json(JsonArray{Json(1), Json()}));
  EXPECT_EQ(json.Dump(),
            R"({"n":42,"x":1.5,"s":"a\"b","flag":false,"list":[1,null]})");
}

TEST(Json, DumpPrettyIsReparsable) {
  Json json = JsonObject{};
  json.Set("outer", Json(JsonObject{{"inner", Json(JsonArray{Json(1)})}}));
  const std::string pretty = json.Dump(2);
  EXPECT_NE(pretty.find("\n  \"outer\""), std::string::npos);
  EXPECT_EQ(Json::Parse(pretty), json);
}

TEST(Json, IntDoubleDistinctionSurvivesRoundTrip) {
  Json json = JsonObject{};
  json.Set("i", Json(std::int64_t{5}));
  json.Set("d", Json(5.0));  // integral-valued double
  const Json back = Json::Parse(json.Dump());
  EXPECT_TRUE(back.at("i").IsInt());
  EXPECT_FALSE(back.at("d").IsInt());
  EXPECT_DOUBLE_EQ(back.at("d").AsDouble(), 5.0);
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json json = JsonArray{Json(std::nan("")), Json(INFINITY)};
  EXPECT_EQ(json.Dump(), "[null,null]");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::Parse("null").IsNull());
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_EQ(Json::Parse("-17").AsInt(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("2.5e-3").AsDouble(), 0.0025);
  EXPECT_EQ(Json::Parse(R"("he\nllo")").AsString(), "he\nllo");
}

TEST(Json, ParseNestedWithWhitespace) {
  const auto json = Json::Parse(R"(
    { "a" : [ 1 , { "b" : "c" } , [] ] ,
      "d" : {} }
  )");
  EXPECT_EQ(json.at("a").size(), 3u);
  EXPECT_EQ(json.at("a").at(std::size_t{1}).at("b").AsString(), "c");
  EXPECT_EQ(json.at("d").size(), 0u);
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(Json::Parse(R"("A")").AsString(), "A");
  EXPECT_EQ(Json::Parse(R"("é")").AsString(), "\xc3\xa9");  // é
}

TEST(Json, ParseErrorsCarryOffsets) {
  EXPECT_THROW(Json::Parse(""), CheckError);
  EXPECT_THROW(Json::Parse("{"), CheckError);
  EXPECT_THROW(Json::Parse("[1,]2"), CheckError);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), CheckError);
  EXPECT_THROW(Json::Parse("tru"), CheckError);
  EXPECT_THROW(Json::Parse("1 2"), CheckError);
  EXPECT_THROW(Json::Parse("\"unterminated"), CheckError);
}

TEST(Json, RoundTripComplexDocument) {
  Json document = JsonObject{};
  document.Set("name", Json("fig5"));
  Json methods = JsonArray{};
  for (int i = 0; i < 3; ++i) {
    Json method = JsonObject{};
    method.Set("id", Json(i));
    method.Set("mean", Json(0.1 * i + 0.05));
    methods.PushBack(std::move(method));
  }
  document.Set("methods", std::move(methods));
  EXPECT_EQ(Json::Parse(document.Dump()), document);
  EXPECT_EQ(Json::Parse(document.Dump(4)), document);
}

}  // namespace
}  // namespace hypertune
