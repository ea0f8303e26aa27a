// Unit tests for src/common: Status, Result, strings, bytes, rand.

#include <gtest/gtest.h>

#include <cctype>

#include "src/common/bytes.h"
#include "src/common/rand.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace hcs {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("no such host");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such host");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: no such host");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(TimeoutError("").code(), StatusCode::kTimeout);
  EXPECT_EQ(ProtocolError("").code(), StatusCode::kProtocolError);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(PermissionDeniedError("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == TimeoutError("x"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return TimeoutError("slow"); };
  auto wrapper = [&]() -> Status {
    HCS_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kTimeout);
}

// --- Result -----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusIsAProgrammingErrorNotASilentEmpty) {
  Result<int> r{Status::Ok()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool ok) -> Result<std::string> {
    if (ok) {
      return std::string("data");
    }
    return UnavailableError("down");
  };
  auto consumer = [&](bool ok) -> Result<size_t> {
    HCS_ASSIGN_OR_RETURN(std::string s, producer(ok));
    return s.size();
  };
  EXPECT_EQ(*consumer(true), 4u);
  EXPECT_EQ(consumer(false).status().code(), StatusCode::kUnavailable);
}

// --- strings ------------------------------------------------------------------

TEST(StringsTest, SplitBasics) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), std::vector<std::string>{});
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(StrSplit("one", ','), std::vector<std::string>{"one"});
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"ctx", "bind", "hns"};
  EXPECT_EQ(StrJoin(parts, "."), "ctx.bind.hns");
  EXPECT_EQ(StrSplit(StrJoin(parts, "."), '.'), parts);
  EXPECT_EQ(StrJoin({}, "."), "");
}

TEST(StringsTest, CaseFoldingIsAsciiOnly) {
  EXPECT_EQ(AsciiToLower("Fiji.CS.Washington.EDU"), "fiji.cs.washington.edu");
  EXPECT_TRUE(EqualsIgnoreCase("BIND", "bind"));
  EXPECT_FALSE(EqualsIgnoreCase("BIND", "bin"));
  EXPECT_FALSE(EqualsIgnoreCase("BIND", "bine"));
}

TEST(StringsTest, FoldMatchesCLocaleToLowerOnEveryByte) {
  // The tree never calls setlocale, so std::tolower runs in the "C" locale;
  // the inline fold must agree with it on all 256 byte values, through
  // every entry point that folds.
  std::string all_bytes;
  std::string expected;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const char lowered = static_cast<char>(std::tolower(b));
    EXPECT_EQ(AsciiLower(c), lowered) << "byte " << b;
    EXPECT_TRUE(EqualsIgnoreCase(std::string(1, c), std::string(1, lowered))) << "byte " << b;
    all_bytes.push_back(c);
    expected.push_back(lowered);
  }
  EXPECT_EQ(AsciiToLower(all_bytes), expected);
  std::string appended = "prefix|";
  AppendAsciiLower(&appended, all_bytes);
  EXPECT_EQ(appended, "prefix|" + expected);
  InlineKey key;
  key.AppendLower(all_bytes);
  EXPECT_EQ(key.view(), expected);
}

TEST(StringsTest, InlineKeySpillsPastItsBufferIntact) {
  // Short keys stay inline; a key that outgrows the buffer mid-append (and
  // again after spilling) keeps every byte in order.
  InlineKey key;
  key.Append("tag").Push('|').AppendLower("MiXeD");
  EXPECT_EQ(key.view(), "tag|mixed");
  const std::string long_part(200, 'Q');
  key.Push('|').AppendLower(long_part).Append("TAIL");
  EXPECT_EQ(key.view(), "tag|mixed|" + std::string(200, 'q') + "TAIL");
  InlineKey copy = key;
  EXPECT_EQ(copy.view(), key.view());
  InlineKey exact;
  exact.Append(std::string(128, 'x'));
  EXPECT_EQ(exact.view(), std::string(128, 'x'));
  exact.Push('y');
  EXPECT_EQ(exact.view(), std::string(128, 'x') + "y");
}

TEST(StringsTest, ParseU32AcceptsOnlyInRangeDecimals) {
  EXPECT_EQ(ParseU32("0").value(), 0u);
  EXPECT_EQ(ParseU32("4294967295").value(), 0xffffffffu);
  EXPECT_EQ(ParseU32("00042").value(), 42u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "4294967296",
                          "99999999999999999999", "0x10", "1.5", "abc"}) {
    EXPECT_EQ(ParseU32(bad).status().code(), StatusCode::kInvalidArgument)
        << "input: \"" << bad << "\"";
  }
}

TEST(StringsTest, Affixes) {
  EXPECT_TRUE(StartsWith("ctx.bind.hns", "ctx."));
  EXPECT_FALSE(StartsWith("ctx", "ctx."));
  EXPECT_TRUE(EndsWith("fiji.cs.washington.edu", ".edu"));
  EXPECT_FALSE(EndsWith("edu", ".edu"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s:%d", "host", 53), "host:53");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// --- bytes ----------------------------------------------------------------------

TEST(BytesTest, HexDumpTruncates) {
  Bytes data(100, 0xab);
  std::string dump = HexDump(data, 4);
  EXPECT_TRUE(StartsWith(dump, "ab ab ab ab"));
  EXPECT_NE(dump.find("100 bytes total"), std::string::npos);
}

TEST(BytesTest, StringRoundTrip) {
  std::string s = "hello\0world";
  EXPECT_EQ(StringFromBytes(BytesFromString(s)), s);
}

// --- rand ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, IdentifierShape) {
  Rng rng(13);
  std::string id = rng.Identifier(12);
  EXPECT_EQ(id.size(), 12u);
  for (char c : id) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

}  // namespace
}  // namespace hcs
