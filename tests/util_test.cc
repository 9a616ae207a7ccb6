// Tests for util: Status/Result, Rng, string helpers, privacy accountant.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dp/composition.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stringutil.h"

namespace nodedp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCategoriesAndMessages) {
  const Status s = Status::InvalidArgument("bad delta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad delta");
  EXPECT_NE(s.ToString().find("InvalidArgument"), std::string::npos);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_TRUE(ok.status().ok());

  Result<int> bad(Status::NotFound("missing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> bad(Status::Internal("boom"));
  EXPECT_DEATH(bad.value(), "boom");
}

TEST(RngTest, DeterministicAndSplit) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
  Rng child_a = a.Split();
  Rng child_b = b.Split();
  EXPECT_EQ(child_a.NextUint64(), child_b.NextUint64());
  // Child stream differs from parent continuation.
  EXPECT_NE(a.NextUint64(), child_a.NextUint64());
}

TEST(RngTest, BoundedUniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(13), 13u);
  }
}

TEST(RngTest, BoundedUniformIsUnbiasedRoughly) {
  Rng rng(2);
  std::vector<int> counts(5, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.NextUint64(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.01);
  }
}

TEST(RngTest, DoubleRanges) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.NextDoubleOpen();
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / trials, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(6);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-3.0));
  EXPECT_TRUE(rng.NextBernoulli(7.0));
}

TEST(StringUtilTest, SplitAndTrim) {
  const auto pieces = SplitAndTrim("a  b\tc ", " \t");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
  EXPECT_TRUE(SplitAndTrim("", " ").empty());
  EXPECT_TRUE(SplitAndTrim("   ", " ").empty());
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \r\n"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(AccountantTest, LedgerTracksSpending) {
  PrivacyAccountant accountant(1.0);
  accountant.Spend(0.5, "gem");
  accountant.Spend(0.5, "laplace");
  EXPECT_NEAR(accountant.spent(), 1.0, 1e-12);
  EXPECT_NEAR(accountant.remaining(), 0.0, 1e-12);
  EXPECT_EQ(accountant.num_charges(), 2);
}

TEST(AccountantDeathTest, OverspendAborts) {
  PrivacyAccountant accountant(1.0);
  accountant.Spend(0.8, "a");
  EXPECT_DEATH(accountant.Spend(0.3, "b"), "privacy budget exceeded");
}

}  // namespace
}  // namespace nodedp
