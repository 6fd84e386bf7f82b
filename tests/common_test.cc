// Unit tests for common/: Status, Result, TypeId, Value, string utilities.

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/string_util.h"
#include "common/types.h"
#include "common/value.h"

namespace dbspinner {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r(std::string("abc"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "abc");
}

TEST(TypesTest, ParseTypeNames) {
  EXPECT_EQ(*ParseTypeName("INT"), TypeId::kInt64);
  EXPECT_EQ(*ParseTypeName("integer"), TypeId::kInt64);
  EXPECT_EQ(*ParseTypeName("BIGINT"), TypeId::kInt64);
  EXPECT_EQ(*ParseTypeName("float"), TypeId::kDouble);
  EXPECT_EQ(*ParseTypeName("NUMERIC"), TypeId::kDouble);
  EXPECT_EQ(*ParseTypeName("varchar"), TypeId::kString);
  EXPECT_EQ(*ParseTypeName("BOOLEAN"), TypeId::kBool);
  EXPECT_FALSE(ParseTypeName("BLOB").ok());
}

TEST(TypesTest, Coercion) {
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kInt64, TypeId::kDouble));
  EXPECT_FALSE(IsImplicitlyCoercible(TypeId::kDouble, TypeId::kInt64));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kNull, TypeId::kString));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kBool, TypeId::kBool));
}

TEST(TypesTest, CommonNumericType) {
  EXPECT_EQ(*CommonNumericType(TypeId::kInt64, TypeId::kInt64),
            TypeId::kInt64);
  EXPECT_EQ(*CommonNumericType(TypeId::kInt64, TypeId::kDouble),
            TypeId::kDouble);
  EXPECT_EQ(*CommonNumericType(TypeId::kNull, TypeId::kInt64),
            TypeId::kInt64);
  EXPECT_FALSE(CommonNumericType(TypeId::kString, TypeId::kInt64).ok());
}

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, Factories) {
  EXPECT_EQ(Value::Int64(7).int64_value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_FALSE(Value::Bool(false).bool_value());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_TRUE(Value::Int64(1).Equals(Value::Double(1.0)));
  EXPECT_FALSE(Value::Int64(1).Equals(Value::Double(1.5)));
}

TEST(ValueTest, NullEquality) {
  EXPECT_TRUE(Value::Null().Equals(Value::Null(TypeId::kInt64)));
  EXPECT_FALSE(Value::Null().Equals(Value::Int64(0)));
}

TEST(ValueTest, CompareOrdersNullsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)), 0);
  EXPECT_GT(Value::Int64(-100).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CompareNumeric) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.0).Compare(Value::Int64(1)), 0);
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, CastIntToDouble) {
  Value v = *Value::Int64(3).CastTo(TypeId::kDouble);
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 3.0);
}

TEST(ValueTest, CastDoubleToIntRounds) {
  EXPECT_EQ(Value::Double(2.6).CastTo(TypeId::kInt64)->int64_value(), 3);
  EXPECT_EQ(Value::Double(-2.6).CastTo(TypeId::kInt64)->int64_value(), -3);
}

TEST(ValueTest, CastStringToNumber) {
  EXPECT_EQ(Value::String("123").CastTo(TypeId::kInt64)->int64_value(), 123);
  EXPECT_DOUBLE_EQ(Value::String("1.5").CastTo(TypeId::kDouble)->double_value(),
                   1.5);
  EXPECT_FALSE(Value::String("abc").CastTo(TypeId::kInt64).ok());
}

TEST(ValueTest, CastNullStaysNull) {
  Value v = *Value::Null().CastTo(TypeId::kDouble);
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kDouble);
}

TEST(ValueTest, CastToString) {
  EXPECT_EQ(Value::Int64(5).CastTo(TypeId::kString)->string_value(), "5");
  EXPECT_EQ(Value::Bool(true).CastTo(TypeId::kString)->string_value(), "true");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.0), "3.0");
  EXPECT_EQ(FormatDouble(0.15), "0.15");
}

}  // namespace
}  // namespace dbspinner
