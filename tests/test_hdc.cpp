// Unit tests for the HDC module: encoder, quantiser, model training and
// CAM-mapped inference.  Dimensions are kept small so the suite stays fast;
// the benches sweep the paper-scale configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hdc/cam_inference.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "workload/dataset.hpp"

namespace xlds::hdc {
namespace {

workload::Dataset small_dataset(std::uint64_t seed = 1) {
  workload::GaussianClustersSpec spec;
  spec.n_classes = 6;
  spec.dim = 48;
  spec.train_per_class = 20;
  spec.test_per_class = 15;
  spec.separation = 5.5;
  return workload::make_gaussian_clusters(spec, seed);
}

HdcConfig small_config(int bits = 3) {
  HdcConfig cfg;
  cfg.hv_dim = 512;
  cfg.element_bits = bits;
  cfg.retrain_epochs = 3;
  return cfg;
}

// ---- encoder ----------------------------------------------------------------

TEST(Encoder, ProjectionIsBipolar) {
  Rng rng(1);
  HdcEncoder enc(16, 64, rng);
  for (double v : enc.projection().data()) EXPECT_TRUE(v == 1.0 || v == -1.0);
  EXPECT_EQ(enc.macs(), 16u * 64u);
}

TEST(Encoder, EncodeIsLinear) {
  Rng rng(2);
  HdcEncoder enc(8, 32, rng);
  std::vector<double> x(8, 0.5);
  const auto y1 = enc.encode(x);
  for (double& v : x) v = 1.0;
  const auto y2 = enc.encode(x);
  for (std::size_t d = 0; d < 32; ++d) EXPECT_NEAR(y2[d], 2.0 * y1[d], 1e-12);
}

TEST(Encoder, SimilarInputsSimilarHypervectors) {
  Rng rng(3);
  HdcEncoder enc(32, 256, rng);
  Rng data(4);
  std::vector<double> a(32), far(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = data.uniform();
    far[i] = data.uniform();
  }
  std::vector<double> near = a;
  near[0] += 0.01;
  auto dist = [&](const std::vector<double>& u, const std::vector<double>& v) {
    double d = 0.0;
    const auto eu = enc.encode(u), ev = enc.encode(v);
    for (std::size_t i = 0; i < eu.size(); ++i) d += (eu[i] - ev[i]) * (eu[i] - ev[i]);
    return d;
  };
  EXPECT_LT(dist(a, near), dist(a, far));
}

// ---- IdLevelEncoder (record-based scheme) ------------------------------------

TEST(IdLevelEncoder, LevelSimilarityDecaysWithDistance) {
  Rng rng(30);
  IdLevelEncoder enc(8, 1024, 16, rng);
  // Neighbouring levels nearly identical; extremes near-orthogonal (~0.5).
  EXPECT_GT(enc.level_similarity(7, 8), 0.9);
  EXPECT_NEAR(enc.level_similarity(0, 15), 0.5, 0.1);
  double prev = 1.1;
  for (std::size_t l : {0u, 4u, 8u, 12u, 15u}) {
    const double s = enc.level_similarity(0, l);
    EXPECT_LT(s, prev) << "level " << l;
    prev = s;
  }
}

TEST(IdLevelEncoder, LevelOfClampsAndQuantises) {
  Rng rng(31);
  IdLevelEncoder enc(4, 256, 8, rng, 0.0, 1.0);
  EXPECT_EQ(enc.level_of(-1.0), 0u);
  EXPECT_EQ(enc.level_of(0.0), 0u);
  EXPECT_EQ(enc.level_of(0.999), 7u);
  EXPECT_EQ(enc.level_of(2.0), 7u);
  EXPECT_LT(enc.level_of(0.3), enc.level_of(0.9));
}

TEST(IdLevelEncoder, SimilarInputsSimilarHypervectors) {
  Rng rng(32);
  IdLevelEncoder enc(32, 1024, 16, rng);
  Rng data(33);
  std::vector<double> a(32), far(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = data.uniform();
    far[i] = data.uniform();
  }
  std::vector<double> near = a;
  near[0] = std::min(1.0, near[0] + 0.03);
  auto dist = [&](const std::vector<double>& u, const std::vector<double>& v) {
    const auto eu = enc.encode(u), ev = enc.encode(v);
    double d = 0.0;
    for (std::size_t i = 0; i < eu.size(); ++i) d += (eu[i] - ev[i]) * (eu[i] - ev[i]);
    return d;
  };
  EXPECT_LT(dist(a, near), dist(a, far));
}

TEST(IdLevelEncoder, ModelTrainsAboveChanceWithRecordEncoding) {
  const auto ds = small_dataset(9);
  Rng rng(34);
  HdcConfig cfg = small_config(4);
  cfg.encoder = EncoderKind::kIdLevel;
  cfg.hv_dim = 1024;
  HdcModel model(cfg, ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  EXPECT_GT(model.accuracy(ds.test_x, ds.test_y), 0.6);
}

// ---- quantiser -------------------------------------------------------------

TEST(Quantiser, DigitsCoverRangeAndClamp) {
  ElementQuantiser q(3, 1.0);
  EXPECT_EQ(q.levels(), 8);
  EXPECT_EQ(q.digit(-5.0), 0);
  EXPECT_EQ(q.digit(5.0), 7);
  EXPECT_EQ(q.digit(-0.999), 0);
  EXPECT_EQ(q.digit(0.999), 7);
}

TEST(Quantiser, RoundTripErrorBounded) {
  ElementQuantiser q(4, 2.0);
  const double bucket = 4.0 / 16.0;
  for (double v = -2.0; v <= 2.0; v += 0.037) {
    EXPECT_LE(std::abs(q.value(q.digit(v)) - v), bucket / 2.0 + 1e-12) << v;
  }
}

TEST(Quantiser, MonotoneDigits) {
  ElementQuantiser q(2, 1.0);
  int prev = -1;
  for (double v = -1.0; v <= 1.0; v += 0.01) {
    const int d = q.digit(v);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

// ---- model ------------------------------------------------------------------

TEST(HdcModel, TrainsAboveChance) {
  const auto ds = small_dataset();
  Rng rng(5);
  HdcModel model(small_config(), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  EXPECT_GT(model.accuracy(ds.test_x, ds.test_y), 0.8);
}

TEST(HdcModel, ClassifyBeforeTrainThrows) {
  Rng rng(6);
  HdcModel model(small_config(), 48, 6, rng);
  EXPECT_THROW(model.classify(std::vector<double>(48, 0.5)), PreconditionError);
  EXPECT_THROW(model.class_digits(0), PreconditionError);
}

TEST(HdcModel, DigitsWithinLevelRange) {
  const auto ds = small_dataset();
  Rng rng(7);
  HdcModel model(small_config(2), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  for (std::size_t cls = 0; cls < ds.n_classes; ++cls)
    for (int d : model.class_digits(cls)) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, 4);
    }
  for (int d : model.query_digits(ds.test_x[0])) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 4);
  }
}

TEST(HdcModel, CosineRealAtLeastAsGoodAsOneBit) {
  const auto ds = small_dataset(2);
  Rng rng_a(8), rng_b(8);
  HdcConfig real_cfg = small_config(8);
  real_cfg.similarity = Similarity::kCosineReal;
  HdcModel real_model(real_cfg, ds.dim, ds.n_classes, rng_a);
  HdcConfig one_bit = small_config(1);
  HdcModel low_model(one_bit, ds.dim, ds.n_classes, rng_b);
  real_model.train(ds.train_x, ds.train_y);
  low_model.train(ds.train_x, ds.train_y);
  EXPECT_GE(real_model.accuracy(ds.test_x, ds.test_y) + 0.02,
            low_model.accuracy(ds.test_x, ds.test_y));
}

TEST(HdcModel, LongerHypervectorsHelpAtLowPrecision) {
  workload::GaussianClustersSpec spec;
  spec.n_classes = 10;
  spec.dim = 48;
  spec.train_per_class = 15;
  spec.test_per_class = 10;
  spec.separation = 3.0;  // hard enough that dimensionality matters
  const auto ds = workload::make_gaussian_clusters(spec, 3);
  double acc_short_sum = 0.0, acc_long_sum = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng_s(9 + seed), rng_l(9 + seed);
    HdcConfig short_cfg = small_config(1);
    short_cfg.hv_dim = 64;
    HdcConfig long_cfg = small_config(1);
    long_cfg.hv_dim = 1024;
    HdcModel short_model(short_cfg, ds.dim, ds.n_classes, rng_s);
    HdcModel long_model(long_cfg, ds.dim, ds.n_classes, rng_l);
    short_model.train(ds.train_x, ds.train_y);
    long_model.train(ds.train_x, ds.train_y);
    acc_short_sum += short_model.accuracy(ds.test_x, ds.test_y);
    acc_long_sum += long_model.accuracy(ds.test_x, ds.test_y);
  }
  EXPECT_GT(acc_long_sum, acc_short_sum);
}

TEST(HdcModel, SimilarityVariantsAllWork) {
  const auto ds = small_dataset(4);
  for (Similarity sim : {Similarity::kCosineReal, Similarity::kCosineQuantised,
                         Similarity::kSquaredEuclideanDigits}) {
    Rng rng(10);
    HdcConfig cfg = small_config(3);
    cfg.similarity = sim;
    HdcModel model(cfg, ds.dim, ds.n_classes, rng);
    model.train(ds.train_x, ds.train_y);
    EXPECT_GT(model.accuracy(ds.test_x, ds.test_y), 0.6)
        << "similarity variant " << static_cast<int>(sim);
  }
}

// ---- CAM-mapped inference --------------------------------------------------

cam::FeFetCamConfig cam_subarray(int bits, std::size_t cols) {
  cam::FeFetCamConfig cfg;
  cfg.fefet.bits = bits;
  cfg.cols = cols;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  cfg.sense_levels = 128;
  return cfg;
}

TEST(CamInference, MatchesSoftwareAccuracyWithoutNonidealities) {
  const auto ds = small_dataset(5);
  Rng rng(11);
  HdcModel model(small_config(3), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  CamInferenceConfig cfg;
  cfg.subarray = cam_subarray(3, 128);
  cfg.aggregation = cam::Aggregation::kSumSensed;
  HdcCamInference cam_inf(model, cfg, rng);
  const double sw = model.accuracy(ds.test_x, ds.test_y);
  const double hw = cam_inf.accuracy(ds.test_x, ds.test_y);
  EXPECT_NEAR(hw, sw, 0.08);
}

TEST(CamInference, BitWidthMismatchThrows) {
  const auto ds = small_dataset(6);
  Rng rng(12);
  HdcModel model(small_config(3), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  CamInferenceConfig cfg;
  cfg.subarray = cam_subarray(2, 64);  // cell bits != model bits
  EXPECT_THROW(HdcCamInference(model, cfg, rng), PreconditionError);
}

TEST(CamInference, SegmentsCoverHvDim) {
  const auto ds = small_dataset(7);
  Rng rng(13);
  HdcModel model(small_config(2), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  CamInferenceConfig cfg;
  cfg.subarray = cam_subarray(2, 64);
  HdcCamInference cam_inf(model, cfg, rng);
  EXPECT_EQ(cam_inf.segments(), 512u / 64u);
  EXPECT_GT(cam_inf.search_cost().latency, 0.0);
  EXPECT_GT(cam_inf.search_cost().energy, 0.0);
}

TEST(CamInference, AnalogEncodeMatchesSoftwareEncode) {
  const auto ds = small_dataset(10);
  Rng rng(15);
  HdcModel model(small_config(3), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);

  CamInferenceConfig sw_cfg;
  sw_cfg.subarray = cam_subarray(3, 128);
  sw_cfg.aggregation = cam::Aggregation::kSumSensed;
  Rng rng_sw(16);
  HdcCamInference software(model, sw_cfg, rng_sw);

  CamInferenceConfig hw_cfg = sw_cfg;
  hw_cfg.analog_encode = true;
  hw_cfg.encoder_tiles.tile.rows = 48;
  hw_cfg.encoder_tiles.tile.cols = 64;
  hw_cfg.encoder_tiles.tile.apply_variation = false;
  hw_cfg.encoder_tiles.tile.read_noise_rel = 0.0;
  hw_cfg.encoder_tiles.tile.ir_drop = xbar::IrDropMode::kNone;
  hw_cfg.encoder_tiles.tile.adc.bits = 12;
  Rng rng_hw(16);
  HdcCamInference analog(model, hw_cfg, rng_hw);
  EXPECT_TRUE(analog.analog_encode());
  EXPECT_GT(analog.encode_cost().latency, 0.0);
  EXPECT_EQ(software.encode_cost().latency, 0.0);

  const double sw_acc = software.accuracy(ds.test_x, ds.test_y);
  const double hw_acc = analog.accuracy(ds.test_x, ds.test_y);
  EXPECT_NEAR(hw_acc, sw_acc, 0.08);
}

// The serving loop encodes only through query_digits_batch: row b must read
// exactly what query_digits(row b) reads on a twin inference, with the analog
// encoder's read noise on, at any pool width.
TEST(CamInference, QueryDigitsBatchMatchesPerQueryDigits) {
  const auto ds = small_dataset(12);
  Rng rng(18);
  HdcConfig model_cfg = small_config(3);
  model_cfg.hv_dim = 128;
  HdcModel model(model_cfg, ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);

  CamInferenceConfig cfg;
  cfg.subarray = cam_subarray(3, 128);
  cfg.analog_encode = true;
  cfg.encoder_tiles.tile.rows = 16;  // 3 x 8 tiles, so the fleet runs in parallel
  cfg.encoder_tiles.tile.cols = 32;
  cfg.encoder_tiles.tile.read_noise_rel = 0.005;
  cfg.encoder_tiles.tile.ir_drop = xbar::IrDropMode::kNodal;

  constexpr std::size_t kQueries = 19;  // one full substitution block and a ragged tail
  MatrixD xs(kQueries, ds.dim);
  for (std::size_t b = 0; b < kQueries; ++b)
    std::copy(ds.test_x[b].begin(), ds.test_x[b].end(), xs.row_data(b));

  std::vector<std::vector<int>> first_width;
  for (const std::size_t threads : {1u, 8u}) {
    set_parallel_threads(threads);
    Rng r_batch(19), r_single(19);
    HdcCamInference batched(model, cfg, r_batch);
    HdcCamInference single(model, cfg, r_single);
    const std::vector<std::vector<int>> digits = batched.query_digits_batch(xs);
    ASSERT_EQ(digits.size(), kQueries);
    for (std::size_t b = 0; b < kQueries; ++b)
      EXPECT_EQ(digits[b], single.query_digits(ds.test_x[b]))
          << threads << " lanes, query " << b;
    if (first_width.empty())
      first_width = digits;
    else
      EXPECT_EQ(digits, first_width) << "pool width changed the digits";
  }
  set_parallel_threads(0);
}

// accuracy() encodes the whole set in one batch and searches it in one
// batch: it must score what a twin's per-sample classify() loop scores, with
// the software and the analog encoder and at 1 and 3 votes, and leave every
// stream where the loop leaves it (the second pass starts from there).
TEST(CamInference, AccuracyMatchesPerSampleClassify) {
  const auto ds = small_dataset(13);
  Rng rng(20);
  HdcConfig model_cfg = small_config(3);
  model_cfg.hv_dim = 128;
  HdcModel model(model_cfg, ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);

  CamInferenceConfig cfg;
  cfg.subarray = cam_subarray(3, 32);  // 4 segments
  cfg.subarray.apply_variation = true;
  // Noisy enough that some predictions flip, so a different draw order shows.
  cfg.subarray.sense_noise_rel = 0.3;
  cfg.encoder_tiles.tile.rows = 16;
  cfg.encoder_tiles.tile.cols = 32;
  cfg.encoder_tiles.tile.read_noise_rel = 0.005;
  cfg.encoder_tiles.tile.ir_drop = xbar::IrDropMode::kNodal;
  const double n = static_cast<double>(ds.test_x.size());
  for (const bool analog : {false, true}) {
    cfg.analog_encode = analog;
    for (const std::size_t votes : {std::size_t{1}, std::size_t{3}}) {
      Rng r_batch(21), r_loop(21);
      const HdcCamInference batched(model, cfg, r_batch);
      const HdcCamInference looped(model, cfg, r_loop);
      for (int pass = 0; pass < 2; ++pass) {
        std::size_t correct = 0;
        for (std::size_t i = 0; i < ds.test_x.size(); ++i)
          if (looped.classify(ds.test_x[i], votes) == ds.test_y[i]) ++correct;
        const double acc = batched.accuracy(ds.test_x, ds.test_y, votes);
        EXPECT_EQ(acc, static_cast<double>(correct) / n)
            << (analog ? "analog" : "software") << " encode, " << votes << " votes, pass "
            << pass;
        EXPECT_GT(acc, 0.3);
        EXPECT_LT(acc, 1.0);
      }
    }
  }
}

TEST(CamInference, AnalogEncodeRejectsRecordEncoder) {
  const auto ds = small_dataset(11);
  Rng rng(17);
  HdcConfig cfg = small_config(3);
  cfg.encoder = EncoderKind::kIdLevel;
  cfg.hv_dim = 1024;
  HdcModel model(cfg, ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  CamInferenceConfig hw;
  hw.subarray = cam_subarray(3, 128);
  hw.analog_encode = true;
  EXPECT_THROW(HdcCamInference(model, hw, rng), PreconditionError);
}

TEST(CamInference, ProgrammingVariationDegradesGracefullyAtPaperSigma) {
  const auto ds = small_dataset(8);
  Rng rng(14);
  HdcModel model(small_config(3), ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);

  CamInferenceConfig clean_cfg;
  clean_cfg.subarray = cam_subarray(3, 128);
  HdcCamInference clean(model, clean_cfg, rng);

  CamInferenceConfig noisy_cfg = clean_cfg;
  noisy_cfg.subarray.apply_variation = true;
  noisy_cfg.subarray.fefet.sigma_program = 0.094;  // the paper's measured sigma
  HdcCamInference noisy(model, noisy_cfg, rng);

  const double acc_clean = clean.accuracy(ds.test_x, ds.test_y);
  const double acc_noisy = noisy.accuracy(ds.test_x, ds.test_y);
  // Fig. 3G-ii: at 94 mV there is no meaningful degradation.
  EXPECT_NEAR(acc_noisy, acc_clean, 0.06);
}

}  // namespace
}  // namespace xlds::hdc
