// Unit tests for the util module: Status/StatusOr, string helpers, SPICE
// number parsing, table rendering, RNG determinism, logging levels, units.
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/units.h"

namespace cmldft::util {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NoConvergence("newton stalled");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNoConvergence);
  EXPECT_EQ(s.ToString(), "NO_CONVERGENCE: newton stalled");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MacroPropagates) {
  auto inner = []() -> StatusOr<int> { return Status::ParseError("bad"); };
  auto outer = [&]() -> Status {
    CMLDFT_ASSIGN_OR_RETURN(int x, inner());
    (void)x;
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kParseError);
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(Strings, SplitTokens) {
  auto t = SplitTokens("  r1  a\tb   4k ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "r1");
  EXPECT_EQ(t[3], "4k");
}

TEST(Strings, SplitCharKeepsEmptyFields) {
  auto t = SplitChar("a,,b", ',');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("PULSE", "pulse"));
  EXPECT_FALSE(EqualsIgnoreCase("puls", "pulse"));
}

struct SpiceNumberCase {
  const char* text;
  double expected;
};

class SpiceNumberTest : public ::testing::TestWithParam<SpiceNumberCase> {};

TEST_P(SpiceNumberTest, Parses) {
  auto v = ParseSpiceNumber(GetParam().text);
  ASSERT_TRUE(v.ok()) << GetParam().text;
  EXPECT_NEAR(*v, GetParam().expected, std::fabs(GetParam().expected) * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceNumberTest,
    ::testing::Values(SpiceNumberCase{"4k", 4e3}, SpiceNumberCase{"4kohm", 4e3},
                      SpiceNumberCase{"10p", 1e-11}, SpiceNumberCase{"1.5u", 1.5e-6},
                      SpiceNumberCase{"100meg", 1e8}, SpiceNumberCase{"2.5G", 2.5e9},
                      SpiceNumberCase{"-3m", -3e-3}, SpiceNumberCase{"1e-15", 1e-15},
                      SpiceNumberCase{"0.9", 0.9}, SpiceNumberCase{"3.3v", 3.3},
                      SpiceNumberCase{"45f", 45e-15}, SpiceNumberCase{"2n", 2e-9},
                      SpiceNumberCase{"7t", 7e12}));

TEST(Strings, ParseSpiceNumberRejectsGarbage) {
  EXPECT_FALSE(ParseSpiceNumber("abc").ok());
  EXPECT_FALSE(ParseSpiceNumber("").ok());
  EXPECT_FALSE(ParseSpiceNumber("   ").ok());
  // strtod accepts these; a circuit value is never non-finite.
  EXPECT_FALSE(ParseSpiceNumber("nan").ok());
  EXPECT_FALSE(ParseSpiceNumber("inf").ok());
  EXPECT_FALSE(ParseSpiceNumber("-inf").ok());
  EXPECT_FALSE(ParseSpiceNumber("1e999").ok());
  EXPECT_FALSE(ParseSpiceNumber("1e300t").ok());  // overflows when scaled
}

TEST(Strings, FormatEngineering) {
  EXPECT_EQ(FormatEngineering(4000.0), "4k");
  EXPECT_EQ(FormatEngineering(1e-11, "F"), "10pF");
  EXPECT_EQ(FormatEngineering(0.0), "0");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Units, LiteralsAndConstants) {
  using namespace literals;
  EXPECT_DOUBLE_EQ(4_kOhm, 4000.0);
  EXPECT_DOUBLE_EQ(250.0_mV, 0.25);
  EXPECT_DOUBLE_EQ(10_pF, 1e-11);
  EXPECT_DOUBLE_EQ(100_MHz, 1e8);
  EXPECT_DOUBLE_EQ(53.0_ps, 53e-12);
  EXPECT_NEAR(ThermalVoltage(), 0.02585, 1e-4);
}

TEST(Logging, ThresholdFilters) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  CMLDFT_LOG(kDebug) << "should not crash and not print";
  SetLogLevel(old_level);
}

}  // namespace
}  // namespace cmldft::util
