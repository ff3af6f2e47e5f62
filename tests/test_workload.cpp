// Unit tests for the synthetic workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "util/error.hpp"
#include "workload/dataset.hpp"
#include "workload/fewshot.hpp"

namespace xlds::workload {
namespace {

// ---- Gaussian-cluster datasets ---------------------------------------------

TEST(Dataset, DeterministicForSameSeed) {
  const Dataset a = make_named_dataset("isolet-like", 7);
  const Dataset b = make_named_dataset("isolet-like", 7);
  EXPECT_EQ(a.train_x, b.train_x);
  EXPECT_EQ(a.test_y, b.test_y);
}

TEST(Dataset, DifferentSeedsDiffer) {
  const Dataset a = make_named_dataset("isolet-like", 7);
  const Dataset b = make_named_dataset("isolet-like", 8);
  EXPECT_NE(a.train_x, b.train_x);
}

TEST(Dataset, PresetShapesMatchDocs) {
  const Dataset iso = make_named_dataset("isolet-like", 1);
  EXPECT_EQ(iso.n_classes, 26u);
  EXPECT_EQ(iso.dim, 617u);
  EXPECT_EQ(iso.train_x.size(), 26u * 20u);
  EXPECT_EQ(iso.test_x.size(), 26u * 12u);
  const Dataset har = make_named_dataset("ucihar-like", 1);
  EXPECT_EQ(har.n_classes, 6u);
  EXPECT_EQ(har.dim, 561u);
}

TEST(Dataset, FeaturesInUnitRange) {
  const Dataset ds = make_named_dataset("language-like", 2);
  for (const auto& x : ds.train_x)
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
}

TEST(Dataset, UnknownPresetThrows) {
  EXPECT_THROW(make_named_dataset("imagenet", 1), PreconditionError);
}

TEST(Dataset, AllPresetsGenerate) {
  for (const std::string& name : named_dataset_presets())
    EXPECT_NO_THROW(make_named_dataset(name, 3)) << name;
}

// Nearest-centroid accuracy grows with separation — the knob the accuracy
// experiments rely on.
double centroid_accuracy(const Dataset& ds) {
  std::vector<std::vector<double>> centroids(ds.n_classes, std::vector<double>(ds.dim, 0.0));
  std::vector<double> counts(ds.n_classes, 0.0);
  for (std::size_t i = 0; i < ds.train_x.size(); ++i) {
    for (std::size_t d = 0; d < ds.dim; ++d) centroids[ds.train_y[i]][d] += ds.train_x[i][d];
    counts[ds.train_y[i]] += 1.0;
  }
  for (std::size_t c = 0; c < ds.n_classes; ++c)
    for (std::size_t d = 0; d < ds.dim; ++d) centroids[c][d] /= counts[c];
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ds.test_x.size(); ++i) {
    std::size_t best = 0;
    double best_d = 1e300;
    for (std::size_t c = 0; c < ds.n_classes; ++c) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < ds.dim; ++d) {
        const double delta = ds.test_x[i][d] - centroids[c][d];
        d2 += delta * delta;
      }
      if (d2 < best_d) {
        best_d = d2;
        best = c;
      }
    }
    if (best == ds.test_y[i]) ++correct;
  }
  return static_cast<double>(correct) / ds.test_x.size();
}

class SeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(SeparationSweep, CentroidAccuracyTracksSeparation) {
  GaussianClustersSpec spec;
  spec.n_classes = 8;
  spec.dim = 32;
  spec.train_per_class = 30;
  spec.test_per_class = 20;
  spec.separation = GetParam();
  const double acc = centroid_accuracy(make_gaussian_clusters(spec, 5));
  // Pairwise Bayes error ~ Phi(-separation/2), scaled up by the class count.
  if (GetParam() >= 6.0) {
    EXPECT_GT(acc, 0.95);
  } else if (GetParam() >= 3.0) {
    EXPECT_GT(acc, 0.6);
  } else if (GetParam() <= 0.5) {
    EXPECT_LT(acc, 0.6);
  }
}

INSTANTIATE_TEST_SUITE_P(Separations, SeparationSweep, ::testing::Values(0.25, 0.5, 3.0, 6.0));

// ---- standardiser ------------------------------------------------------------

TEST(Standardiser, ZScoresTrainSplit) {
  const Dataset ds = standardised(make_named_dataset("ucihar-like", 9));
  // Per-dimension train mean ~0 and std ~1 after standardisation.
  const std::size_t dim = ds.dim;
  std::vector<double> mean(dim, 0.0), var(dim, 0.0);
  for (const auto& x : ds.train_x)
    for (std::size_t d = 0; d < dim; ++d) mean[d] += x[d];
  for (double& m : mean) m /= static_cast<double>(ds.train_x.size());
  for (const auto& x : ds.train_x)
    for (std::size_t d = 0; d < dim; ++d) var[d] += (x[d] - mean[d]) * (x[d] - mean[d]);
  for (std::size_t d = 0; d < std::min<std::size_t>(dim, 16); ++d) {
    EXPECT_NEAR(mean[d], 0.0, 1e-9) << d;
    EXPECT_NEAR(std::sqrt(var[d] / ds.train_x.size()), 1.0, 1e-6) << d;
  }
}

TEST(Standardiser, AppliesTrainStatsToTestSplit) {
  const Dataset raw = make_named_dataset("face-like", 10);
  const Dataset std_ds = standardised(raw);
  const Standardiser s = Standardiser::fit(raw.train_x);
  const auto expected = s.apply(raw.test_x[0]);
  for (std::size_t d = 0; d < raw.dim; ++d)
    EXPECT_DOUBLE_EQ(std_ds.test_x[0][d], expected[d]);
}

TEST(Standardiser, WidthMismatchRejected) {
  const Standardiser s = Standardiser::fit({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_THROW(s.apply({1.0}), PreconditionError);
}

// ---- few-shot generator ----------------------------------------------------

TEST(FewShot, EpisodeShapes) {
  FewShotGenerator gen(FewShotSpec{}, 11);
  const Episode ep = gen.sample_episode(5, 3, 4);
  EXPECT_EQ(ep.n_way, 5u);
  EXPECT_EQ(ep.k_shot, 3u);
  EXPECT_EQ(ep.support_x.size(), 15u);
  EXPECT_EQ(ep.query_x.size(), 20u);
  for (std::size_t y : ep.support_y) EXPECT_LT(y, 5u);
  for (std::size_t y : ep.query_y) EXPECT_LT(y, 5u);
  EXPECT_EQ(ep.support_x[0].size(), gen.image_size());
}

TEST(FewShot, PixelsInUnitRange) {
  FewShotGenerator gen(FewShotSpec{}, 12);
  const auto img = gen.sample_image(3);
  for (double p : img) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FewShot, SameClassCloserThanDifferentClass) {
  FewShotGenerator gen(FewShotSpec{}, 13);
  auto dist = [](const std::vector<double>& a, const std::vector<double>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] - b[i]) * (a[i] - b[i]);
    return d;
  };
  double same = 0.0, diff = 0.0;
  for (std::size_t cls = 0; cls < 10; ++cls) {
    const auto a = gen.sample_image(cls);
    const auto b = gen.sample_image(cls);
    const auto c = gen.sample_image(cls + 10);
    same += dist(a, b);
    diff += dist(a, c);
  }
  EXPECT_LT(same, diff);
}

TEST(FewShot, FlatSamplingLabels) {
  FewShotGenerator gen(FewShotSpec{}, 14);
  std::vector<std::vector<double>> xs;
  std::vector<std::size_t> ys;
  gen.sample_flat(4, 6, xs, ys);
  EXPECT_EQ(xs.size(), 24u);
  for (std::size_t y : ys) EXPECT_LT(y, 4u);
}

// FewShotGenerator without its prototype tables: the same stream, draws in
// the same order, and every pixel summing the prototype's sinusoids.
class UncachedFewShot {
 public:
  UncachedFewShot(FewShotSpec spec, std::uint64_t seed) : spec_(spec), rng_(seed, 0xF357) {
    waves_.resize(spec_.n_classes);
    for (auto& waves : waves_) {
      waves.resize(spec_.prototype_waves);
      for (Wave& w : waves) {
        w.fx = rng_.uniform(0.5, 3.0);
        w.fy = rng_.uniform(0.5, 3.0);
        w.phase = rng_.uniform(0.0, 2.0 * std::numbers::pi);
        w.amp = rng_.uniform(0.3, 1.0);
      }
    }
  }

  std::vector<double> sample_image(std::size_t cls) {
    const std::size_t side = spec_.image_side;
    const auto shift_range = static_cast<int>(spec_.max_shift);
    const int dx = shift_range == 0
                       ? 0
                       : static_cast<int>(rng_.uniform_u32(2 * shift_range + 1)) - shift_range;
    const int dy = shift_range == 0
                       ? 0
                       : static_cast<int>(rng_.uniform_u32(2 * shift_range + 1)) - shift_range;
    std::vector<double> img(side * side);
    for (std::size_t py = 0; py < side; ++py) {
      for (std::size_t px = 0; px < side; ++px) {
        const double x = (static_cast<double>(px) + dx) / static_cast<double>(side);
        const double y = (static_cast<double>(py) + dy) / static_cast<double>(side);
        double v = 0.0, amp_sum = 0.0;
        for (const Wave& w : waves_[cls]) {
          v += w.amp * std::sin(2.0 * std::numbers::pi * (w.fx * x + w.fy * y) + w.phase);
          amp_sum += w.amp;
        }
        const double pixel = 0.5 + 0.5 * v / amp_sum + rng_.normal(0.0, spec_.pixel_noise);
        img[py * side + px] = std::clamp(pixel, 0.0, 1.0);
      }
    }
    return img;
  }

 private:
  struct Wave {
    double fx, fy, phase, amp;
  };
  FewShotSpec spec_;
  Rng rng_;
  std::vector<std::vector<Wave>> waves_;
};

class FewShotTables : public ::testing::TestWithParam<std::size_t> {};

// Images come out byte-identical to the per-pixel formula, classes repeat
// (table hits) and every later image still matches, so the stream of draws
// is the uncached one.
TEST_P(FewShotTables, ImagesMatchTheUncachedFormulaByteForByte) {
  const FewShotSpec spec{.image_side = 16, .n_classes = 5, .max_shift = GetParam()};
  FewShotGenerator gen(spec, 31);
  UncachedFewShot ref(spec, 31);
  for (std::size_t cls : {3u, 0u, 3u, 4u, 0u, 3u, 1u, 1u}) {
    const std::vector<double> a = gen.sample_image(cls);
    const std::vector<double> b = ref.sample_image(cls);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << "class " << cls;
  }
}

INSTANTIATE_TEST_SUITE_P(MaxShift, FewShotTables, ::testing::Values(0u, 1u, 2u));

TEST(FewShot, InvalidEpisodeThrows) {
  FewShotGenerator gen(FewShotSpec{}, 15);
  EXPECT_THROW(gen.sample_episode(1, 1, 1), PreconditionError);
  EXPECT_THROW(gen.sample_episode(1000, 1, 1), PreconditionError);
}

}  // namespace
}  // namespace xlds::workload
