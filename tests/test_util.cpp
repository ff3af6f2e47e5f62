// Unit tests for the util module: RNG, statistics, matrix, units, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace xlds {
namespace {

// ---- Rng --------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformU32Unbiased) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_u32(10)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 10, 500);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(6);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalScaled) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int heads = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(Rng, LognormalPositive) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(10);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 20u);
  for (std::size_t v : s) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleMoreThanPopulationThrows) {
  Rng rng(12);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), PreconditionError);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(13);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 4);
}

// ---- RunningStats -----------------------------------------------------

TEST(RunningStats, MatchesNaiveComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 16.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(14);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i < 200 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

// ---- correlation ------------------------------------------------------

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> x = {1, 1, 1, 1};
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng(15);
  std::vector<double> x(5000), y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Stats, SpearmanMonotoneNonlinearIsOne) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, SizeMismatchThrows) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1, 2};
  EXPECT_THROW(pearson(x, y), PreconditionError);
}

// ---- percentile / histogram --------------------------------------------

TEST(Stats, PercentileEndpointsAndMedian) {
  const std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Stats, HistogramCountsAndClamping) {
  const std::vector<double> xs = {-1.0, 0.05, 0.15, 0.95, 2.0};
  const Histogram h = Histogram::build(xs, 0.0, 1.0, 10);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bins.front(), 2u);  // -1.0 clamped + 0.05
  EXPECT_EQ(h.bins.back(), 2u);   // 0.95 + 2.0 clamped
  EXPECT_EQ(h.bins[1], 1u);
  EXPECT_DOUBLE_EQ(h.density(0), 0.4);
}

TEST(Stats, GaussianOverlapBehaviour) {
  // Zero sigma: no error.  Growing sigma: growing error, capped at 0.5.
  EXPECT_EQ(gaussian_overlap_error(0.0, 1.0, 0.0), 0.0);
  const double e1 = gaussian_overlap_error(0.0, 1.0, 0.1);
  const double e2 = gaussian_overlap_error(0.0, 1.0, 0.3);
  const double e3 = gaussian_overlap_error(0.0, 1.0, 3.0);
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
  EXPECT_LT(e3, 0.5);
  // Half-window = 0.5, sigma 0.5 -> 1 - Phi(1).
  EXPECT_NEAR(gaussian_overlap_error(0.0, 1.0, 0.5), 1.0 - phi(1.0), 1e-12);
}

TEST(Stats, PhiKnownValues) {
  EXPECT_NEAR(phi(0.0), 0.5, 1e-12);
  EXPECT_NEAR(phi(1.96), 0.975, 1e-3);
  EXPECT_NEAR(phi(-1.96), 0.025, 1e-3);
}

// ---- Matrix --------------------------------------------------------------

TEST(Matrix, MatvecKnownValues) {
  const auto m = MatrixD::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto y = m.matvec({1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatvecTransposed) {
  const auto m = MatrixD::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto y = m.matvec_transposed({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(16);
  MatrixD m(3, 5);
  for (double& v : m.data()) v = rng.normal();
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MatmulAgainstManual) {
  const auto a = MatrixD::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const auto b = MatrixD::from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const auto c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, DimensionMismatchThrows) {
  const MatrixD m(2, 3);
  EXPECT_THROW(m.matvec(std::vector<double>(2)), PreconditionError);
}

// ---- units / table -------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_ns(2.5e-9), 2.5);
  EXPECT_DOUBLE_EQ(to_pj(3.0e-12), 3.0);
  EXPECT_DOUBLE_EQ(to_um2(1e-12), 1.0);
  EXPECT_DOUBLE_EQ(from_nm(40.0), 40e-9);
  EXPECT_DOUBLE_EQ(f2_area(40e-9, 100.0), 100.0 * 1600e-18);
}

TEST(Units, SiFormat) {
  EXPECT_EQ(si_format(2.5e-9, "s", 2), "2.50 ns");
  EXPECT_EQ(si_format(3.2e-12, "J", 1), "3.2 pJ");
  EXPECT_EQ(si_format(1.5e9, "B/s", 1), "1.5 GB/s");
}

TEST(Units, SiFormatEdgeCases) {
  EXPECT_EQ(si_format(0.0, "s", 2), "0 s");
  EXPECT_EQ(si_format(-2.5e-9, "s", 2), "-2.50 ns");
  EXPECT_EQ(si_format(1.0, "V", 1), "1.0 V");
  EXPECT_EQ(fixed_format(3.14159, 2), "3.14");
  EXPECT_EQ(fixed_format(-1.5, 1), "-1.5");
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Error, RequireMacroThrowsWithMessage) {
  try {
    XLDS_REQUIRE_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"), std::string::npos);
  }
}

// ---- JSON ----------------------------------------------------------------------

TEST(Json, ParsesEveryValueKind) {
  const util::Json doc = util::Json::parse(
      R"({"s": "a\n\"b\"", "n": -2.5e3, "i": 42, "t": true, "f": false,
          "z": null, "arr": [1, [2], {}], "nested": {"k": "v"}})");
  EXPECT_EQ(doc.at("s").as_string(), "a\n\"b\"");
  EXPECT_DOUBLE_EQ(doc.at("n").as_number(), -2500.0);
  EXPECT_DOUBLE_EQ(doc.at("i").as_number(), 42.0);
  EXPECT_TRUE(doc.at("t").as_bool());
  EXPECT_FALSE(doc.at("f").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  EXPECT_EQ(doc.at("arr").size(), 3u);
  EXPECT_EQ(doc.at("arr").as_array()[1].as_array()[0].as_number(), 2.0);
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), PreconditionError);
  EXPECT_THROW(doc.at("s").as_number(), PreconditionError);  // kind mismatch
}

TEST(Json, MalformedInputThrowsWithPosition) {
  for (const char* bad : {"{", "[1,]", "{\"a\": }", "tru", "\"unterminated",
                          "{\"a\": 1} trailing", "01", "{\"a\" 1}"}) {
    EXPECT_THROW(util::Json::parse(bad), PreconditionError) << bad;
  }
  try {
    util::Json::parse("{\n  \"a\": oops\n}");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);  // line 2
  }
}

TEST(Json, NestingIsBoundedInsteadOfOverflowingTheStack) {
  const auto nested = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += i % 2 == 0 ? "[" : "{\"k\":";
    text += "0";
    for (std::size_t i = depth; i-- > 0;) text += i % 2 == 0 ? "]" : "}";
    return text;
  };
  const std::size_t limit = util::Json::kMaxParseDepth;
  const util::Json at_limit = util::Json::parse(nested(limit));
  EXPECT_EQ(at_limit.dump(), nested(limit));
  EXPECT_THROW(util::Json::parse(nested(limit + 1)), PreconditionError);
  // Far past the limit: refused at the limit, long before the stack runs out.
  EXPECT_THROW(util::Json::parse(std::string(2'000'000, '[')), PreconditionError);
}

TEST(Json, DumpIsStableAndRoundTrips) {
  util::Json doc = util::Json::object();
  doc.set("b", 2).set("a", 1.5).set("list", util::Json::array());
  doc.set("b", 3);  // replace in place: insertion order must survive
  const std::string text = doc.dump();
  EXPECT_EQ(text, R"({"b":3,"a":1.5,"list":[]})");  // integral 3 prints as 3
  EXPECT_EQ(util::Json::parse(text).dump(), text);
  EXPECT_EQ(util::Json::parse(doc.dump(2)).dump(), text);  // pretty round-trip
}

// ---- ArgParse ------------------------------------------------------------------

TEST(ArgParse, ParsesOptionsFlagsAndDefaults) {
  util::ArgParse args("prog", "test");
  args.add_option("seed", "the seed", "7").add_option("out", "path").add_flag("fast", "go fast");
  const char* argv[] = {"prog", "--seed=99", "--fast"};
  std::ostringstream out, err;
  ASSERT_TRUE(args.parse(3, argv, out, err));
  EXPECT_EQ(args.uinteger("seed"), 99u);
  EXPECT_TRUE(args.provided("seed"));
  EXPECT_EQ(args.str("out"), "");  // default kept
  EXPECT_FALSE(args.provided("out"));
  EXPECT_TRUE(args.flag("fast"));
}

TEST(ArgParse, SeparateValueFormAndTypedErrors) {
  util::ArgParse args("prog", "test");
  args.add_option("threads", "width", "0");
  const char* argv[] = {"prog", "--threads", "12"};
  ASSERT_TRUE(args.parse(3, argv));
  EXPECT_EQ(args.integer("threads"), 12);
  EXPECT_THROW(args.str("unregistered"), PreconditionError);

  util::ArgParse bad("prog", "test");
  bad.add_option("n", "number", "not-a-number");
  const char* only[] = {"prog"};
  ASSERT_TRUE(bad.parse(1, only));
  EXPECT_THROW(bad.num("n"), PreconditionError);
}

TEST(ArgParse, UnknownArgumentFailsAndHelpStops) {
  util::ArgParse args("prog", "test");
  args.add_option("seed", "the seed", "1");
  const char* typo[] = {"prog", "--sede", "3"};
  std::ostringstream out, err;
  EXPECT_FALSE(args.parse(3, typo, out, err));
  EXPECT_FALSE(args.help_requested());
  EXPECT_NE(err.str().find("--sede"), std::string::npos);

  util::ArgParse help("prog", "test");
  const char* ask[] = {"prog", "--help"};
  std::ostringstream hout, herr;
  EXPECT_FALSE(help.parse(2, ask, hout, herr));
  EXPECT_TRUE(help.help_requested());
  EXPECT_NE(hout.str().find("usage: prog"), std::string::npos);
}

TEST(ArgParse, MissingValueIsAnError) {
  util::ArgParse args("prog", "test");
  args.add_option("out", "path");
  const char* argv[] = {"prog", "--out"};
  std::ostringstream out, err;
  EXPECT_FALSE(args.parse(2, argv, out, err));
  EXPECT_FALSE(args.help_requested());
}

}  // namespace
}  // namespace xlds
