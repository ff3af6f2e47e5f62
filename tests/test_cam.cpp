// Unit tests for the associative-memory simulators: FeFET MCAM, RRAM TCAM,
// analog CAM and subarray partitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cam/acam.hpp"
#include "cam/fefet_cam.hpp"
#include "cam/partitioned.hpp"
#include "cam/processor.hpp"
#include "cam/rram_tcam.hpp"
#include "fault/fault_map.hpp"
#include "fault/policy.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xlds::cam {
namespace {

FeFetCamConfig ideal_config(std::size_t rows, std::size_t cols, int bits) {
  FeFetCamConfig cfg;
  cfg.fefet.bits = bits;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  cfg.sense_levels = 256;
  return cfg;
}

// ---- FeFetCamArray ---------------------------------------------------------

TEST(FeFetCam, ExactMatchFindsStoredWord) {
  Rng rng(1);
  FeFetCamArray cam(ideal_config(4, 8, 3), rng);
  cam.write_word(0, {0, 1, 2, 3, 4, 5, 6, 7});
  cam.write_word(1, {7, 6, 5, 4, 3, 2, 1, 0});
  cam.write_word(2, {1, 1, 1, 1, 1, 1, 1, 1});
  cam.write_word(3, {0, 0, 0, 0, 0, 0, 0, 7});
  const auto hits = cam.exact_match({7, 6, 5, 4, 3, 2, 1, 0});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
}

TEST(FeFetCam, BestMatchTracksIdealDistance) {
  Rng rng(2);
  FeFetCamArray cam(ideal_config(8, 16, 2), rng);
  Rng data(3);
  std::vector<std::vector<int>> words(8, std::vector<int>(16));
  for (auto& w : words)
    for (int& d : w) d = static_cast<int>(data.uniform_u32(4));
  for (std::size_t r = 0; r < words.size(); ++r) cam.write_word(r, words[r]);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> q(16);
    for (int& d : q) d = static_cast<int>(data.uniform_u32(4));
    const SearchResult res = cam.search(q);
    // The sensed winner must be within sensing resolution of the ideal
    // winner's distance (the sensing saturates, so exact identity can break
    // for far queries; near queries must agree).
    std::size_t ideal_best = 0;
    double best_d = 1e18;
    for (std::size_t r = 0; r < words.size(); ++r) {
      const double d = cam.ideal_distance(r, q);
      if (d < best_d) {
        best_d = d;
        ideal_best = r;
      }
    }
    if (best_d < static_cast<double>(cam.mismatch_limit()) / 2.0) {
      EXPECT_EQ(res.best_row, ideal_best) << "trial " << trial;
    }
  }
}

TEST(FeFetCam, SensedDistanceMonotoneInIdealDistance) {
  Rng rng(4);
  FeFetCamArray cam(ideal_config(3, 8, 3), rng);
  cam.write_word(0, {4, 4, 4, 4, 4, 4, 4, 4});
  cam.write_word(1, {4, 4, 4, 4, 4, 4, 4, 5});  // distance 1
  cam.write_word(2, {4, 4, 4, 4, 4, 4, 5, 5});  // distance 2
  const SearchResult res = cam.search({4, 4, 4, 4, 4, 4, 4, 4});
  EXPECT_LT(res.sensed_distance[0], res.sensed_distance[1]);
  EXPECT_LT(res.sensed_distance[1], res.sensed_distance[2]);
  EXPECT_EQ(res.best_row, 0u);
}

TEST(FeFetCam, QuadraticCellTransfer) {
  // Fig. 3D: a one-step mismatch conducts ~4x less than a two-step mismatch.
  Rng rng(5);
  FeFetCamArray cam(ideal_config(1, 1, 3), rng);
  cam.write_word(0, {4});
  const SearchResult d1 = cam.search({5});
  const SearchResult d2 = cam.search({6});
  EXPECT_GT(d2.sensed_distance[0], 2.5 * std::max(d1.sensed_distance[0], 1e-9));
}

TEST(FeFetCam, TransferCurveIsValleyAtStoredLevel) {
  Rng rng(6);
  const FeFetCamConfig cfg = ideal_config(1, 1, 3);
  FeFetCamArray cam(cfg, rng);
  const auto& fefet = cam.device_model();
  const int stored = 3;
  const double v_store = fefet.search_voltage(stored);
  const double g_at_store = cam.cell_transfer_conductance(v_store, stored);
  const double g_below = cam.cell_transfer_conductance(v_store - 0.4, stored);
  const double g_above = cam.cell_transfer_conductance(v_store + 0.4, stored);
  EXPECT_GT(g_below, 10.0 * g_at_store);
  EXPECT_GT(g_above, 10.0 * g_at_store);
}

TEST(FeFetCam, DontCareCellsNeverDischarge) {
  Rng rng(7);
  FeFetCamArray cam(ideal_config(2, 4, 2), rng);
  cam.write_word(0, {kDontCare, kDontCare, kDontCare, kDontCare});
  cam.write_word(1, {0, 0, 0, 0});
  const SearchResult res = cam.search({3, 3, 3, 3});
  EXPECT_NEAR(res.sensed_distance[0], 0.0, 1e-9);
  EXPECT_GT(res.sensed_distance[1], 0.0);
}

TEST(FeFetCam, ThresholdMatchReturnsCloseRows) {
  Rng rng(8);
  FeFetCamArray cam(ideal_config(3, 8, 3), rng);
  cam.write_word(0, {4, 4, 4, 4, 4, 4, 4, 4});
  cam.write_word(1, {4, 4, 4, 4, 4, 4, 4, 5});
  cam.write_word(2, {0, 0, 0, 0, 0, 0, 0, 0});
  const auto rows = cam.threshold_match({4, 4, 4, 4, 4, 4, 4, 4}, 2.0);
  EXPECT_EQ(rows, (std::vector<std::size_t>{0, 1}));
}

TEST(FeFetCam, ReadbackMatchesStoredWithoutVariation) {
  Rng rng(9);
  FeFetCamArray cam(ideal_config(1, 8, 3), rng);
  cam.write_word(0, {0, 1, 2, 3, 4, 5, 6, 7});
  for (std::size_t c = 0; c < 8; ++c) EXPECT_EQ(cam.readback_digit(0, c), static_cast<int>(c));
}

TEST(FeFetCam, VariationCausesLevelErrorsAtHighSigma) {
  FeFetCamConfig cfg = ideal_config(16, 64, 3);
  cfg.apply_variation = true;
  cfg.fefet.sigma_program = 0.25;  // far beyond the 94 mV the paper measured
  Rng rng(10);
  FeFetCamArray cam(cfg, rng);
  std::vector<int> word(64, 3);
  int errors = 0;
  for (std::size_t r = 0; r < 16; ++r) {
    cam.write_word(r, word);
    for (std::size_t c = 0; c < 64; ++c)
      if (cam.readback_digit(r, c) != 3) ++errors;
  }
  EXPECT_GT(errors, 0);
}

TEST(FeFetCam, SearchCostScalesWithGeometry) {
  Rng rng(11);
  FeFetCamArray small(ideal_config(16, 32, 2), rng);
  FeFetCamArray big(ideal_config(128, 128, 2), rng);
  EXPECT_GT(big.search_cost().energy, small.search_cost().energy);
  EXPECT_GT(big.search_cost().latency, 0.0);
}

TEST(FeFetCam, MismatchLimitPositiveAndBounded) {
  Rng rng(12);
  FeFetCamArray cam(ideal_config(8, 64, 3), rng);
  EXPECT_GE(cam.mismatch_limit(), 1u);
}

TEST(FeFetCam, RejectsBadInput) {
  Rng rng(13);
  FeFetCamArray cam(ideal_config(2, 4, 2), rng);
  EXPECT_THROW(cam.write_word(5, {0, 0, 0, 0}), PreconditionError);
  EXPECT_THROW(cam.write_word(0, {0, 0, 0}), PreconditionError);
  EXPECT_THROW(cam.write_word(0, {0, 0, 0, 9}), PreconditionError);
  cam.write_word(0, {0, 0, 0, 0});
  cam.write_word(1, {0, 0, 0, 0});
  EXPECT_THROW(cam.search({0, 0}), PreconditionError);
  EXPECT_THROW(cam.search({0, 0, 0, 4}), PreconditionError);
}

// Property sweep over cell precisions: without variation/noise the sensed
// winner equals the ideal winner for near queries.
class FeFetCamBits : public ::testing::TestWithParam<int> {};

TEST_P(FeFetCamBits, IdealSearchCorrectAcrossPrecisions) {
  const int bits = GetParam();
  const int levels = 1 << bits;
  Rng rng(14);
  FeFetCamArray cam(ideal_config(6, 12, bits), rng);
  Rng data(15);
  std::vector<std::vector<int>> words(6, std::vector<int>(12));
  for (auto& w : words)
    for (int& d : w) d = static_cast<int>(data.uniform_u32(levels));
  for (std::size_t r = 0; r < words.size(); ++r) cam.write_word(r, words[r]);
  for (std::size_t r = 0; r < words.size(); ++r) {
    std::vector<int> q = words[r];
    q[0] = std::min(levels - 1, q[0] + 1);  // one-step perturbation
    const SearchResult res = cam.search(q);
    EXPECT_EQ(res.best_row, r) << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, FeFetCamBits, ::testing::Values(1, 2, 3, 4));

// ---- search bytes -------------------------------------------------------------

// Programming variation and sense noise on, and sensing fine enough to see
// the last bits of every row sum: at 2^52 codes the log-domain step is about
// 1e-15, so reordering a row's conductance sum, or drawing the sense noise
// in another order, moves the sensed distances.
FeFetCamConfig fine_noisy_config(std::size_t rows, std::size_t cols) {
  FeFetCamConfig cfg;
  cfg.fefet.bits = 3;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.apply_variation = true;
  cfg.sense_noise_rel = 0.02;
  cfg.sense_levels = std::size_t{1} << 52;
  return cfg;
}

std::vector<std::vector<int>> random_words(std::size_t n, std::size_t width, int levels,
                                           Rng& data) {
  std::vector<std::vector<int>> words(n, std::vector<int>(width));
  for (auto& w : words)
    for (int& d : w) d = static_cast<int>(data.uniform_u32(static_cast<std::uint32_t>(levels)));
  return words;
}

// Queries near the stored words (one or two digits off, where the row sums
// cancel hardest against the match baseline) and uniformly random ones.
std::vector<std::vector<int>> query_stream(const std::vector<std::vector<int>>& words,
                                           std::size_t n, int levels, Rng& data) {
  std::vector<std::vector<int>> queries =
      random_words(n, words[0].size(), levels, data);
  for (std::size_t i = 0; i < n; i += 2) {
    queries[i] = words[(i / 2) % words.size()];
    for (int& d : queries[i])
      if (d < 0) d = 0;  // a don't-care word cell: query level 0
    const std::size_t c = data.uniform_u32(static_cast<std::uint32_t>(queries[i].size()));
    queries[i][c] = (queries[i][c] + 1) % levels;
  }
  return queries;
}

// FNV-1a-64 of every sensed distance and best row that `repeats` search()
// calls per query give, in query order.
template <class Cam>
std::uint64_t search_stream_digest(const Cam& cam, const std::vector<std::vector<int>>& queries,
                                   std::size_t repeats) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const std::vector<int>& q : queries) {
    for (std::size_t v = 0; v < repeats; ++v) {
      const SearchResult res = cam.search(q);
      h = util::fnv1a64(res.sensed_distance.data(),
                        res.sensed_distance.size() * sizeof(double), h);
      const std::uint64_t best = res.best_row;
      h = util::fnv1a64(&best, sizeof best, h);
    }
  }
  return h;
}

// An 8 x 16 3-bit array with don't-care cells, a stuck-on, a stuck-off and
// an open cell, and a dead matchline sense amp.
FeFetCamArray faulted_array(std::uint64_t seed, std::vector<std::vector<int>>& words) {
  Rng rng(seed);
  FeFetCamArray cam(fine_noisy_config(8, 16), rng);
  Rng data(seed + 1);
  words = random_words(8, 16, cam.levels(), data);
  words[3][2] = kDontCare;
  words[5][11] = kDontCare;
  for (std::size_t r = 0; r < words.size(); ++r) cam.write_word(r, words[r]);
  fault::FaultMap map(8, 16);
  map.set_cell(1, 3, fault::CellFault::kStuckOn);
  map.set_cell(2, 5, fault::CellFault::kStuckOff);
  map.set_cell(4, 7, fault::CellFault::kOpen);
  map.set_row_sense_dead(6, true);
  cam.apply_fault_map(map);
  return cam;
}

// Pins what search() senses, byte for byte, so a change to the search
// arithmetic or to its draw order cannot hide behind a twin comparison
// that shares it.
TEST(FeFetCam, SearchBytesArePinned) {
  std::vector<std::vector<int>> words;
  const FeFetCamArray cam = faulted_array(41, words);
  ASSERT_EQ(cam.faulty_cell_count(), 3u);
  ASSERT_EQ(cam.dead_sense_rows(), 1u);
  Rng data(43);
  const std::vector<std::vector<int>> queries = query_stream(words, 24, cam.levels(), data);
  EXPECT_EQ(search_stream_digest(cam, queries, 1), 0x591a486292a647faull);
  EXPECT_EQ(search_stream_digest(cam, queries, 3), 0xbfeee965300b8c4aull);
}

// A 68-wide word over 8-wide segments (the last one padded), with sampled
// defects, dead sense amps and subarray exclusion.  Narrow segments split
// the votes, so the two aggregations pick different rows.
PartitionedCam faulted_partition(Aggregation agg, std::vector<std::vector<int>>& words) {
  PartitionedCamConfig cfg;
  cfg.subarray = fine_noisy_config(6, 8);
  cfg.total_width = 68;
  cfg.aggregation = agg;
  Rng rng(47);
  PartitionedCam cam(cfg, rng);
  Rng data(48);
  words = random_words(6, 68, 8, data);
  for (std::size_t r = 0; r < words.size(); ++r) cam.write_word(r, words[r]);
  fault::FaultSpec spec;
  spec.stuck_on_rate = 0.02;
  spec.stuck_off_rate = 0.02;
  spec.wordline_open_rate = 0.01;
  spec.senseamp_dead_rate = 0.05;
  fault::GracefulPolicies policies;
  policies.exclude_subarrays = true;
  policies.exclusion_threshold = 0.1;
  Rng fault_rng(49);
  cam.inject_faults(spec, policies, fault_rng);
  return cam;
}

TEST(PartitionedCam, SearchBytesArePinned) {
  const std::uint64_t pins[2][2] = {{0xd8585c3079903c65ull, 0x14dbc993dc1cd520ull},
                                    {0x10285f2d4f8857b2ull, 0x33f19b6e13f13882ull}};
  for (const Aggregation agg : {Aggregation::kVote, Aggregation::kSumSensed}) {
    std::vector<std::vector<int>> words;
    const PartitionedCam cam = faulted_partition(agg, words);
    ASSERT_EQ(cam.segments(), 9u);
    ASSERT_GT(cam.enabled_segments(), 0u);
    ASSERT_LT(cam.enabled_segments(), cam.segments());  // a segment is excluded
    Rng data(50);
    const std::vector<std::vector<int>> queries = query_stream(words, 16, 8, data);
    const std::size_t a = agg == Aggregation::kVote ? 0 : 1;
    EXPECT_EQ(search_stream_digest(cam, queries, 1), pins[a][0]) << to_string(agg);
    EXPECT_EQ(search_stream_digest(cam, queries, 3), pins[a][1]) << to_string(agg);
  }
}

void expect_same_result(const SearchResult& got, const SearchResult& want, const char* what,
                        std::size_t k) {
  EXPECT_EQ(got.sensed_distance, want.sensed_distance) << what << ", result " << k;
  EXPECT_EQ(got.best_row, want.best_row) << what << ", result " << k;
  EXPECT_EQ(got.cost.latency, want.cost.latency) << what << ", result " << k;
  EXPECT_EQ(got.cost.energy, want.cost.energy) << what << ", result " << k;
}

// search_batch over one array equals search() calls, repeat by repeat, on a
// twin, at pool widths 1 and 8: the rows are summed on several lanes, and
// the noise is still drawn in (query, repeat, row) order.
TEST(FeFetCam, SearchBatchMatchesSearchCalls) {
  for (const std::size_t repeats : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::vector<SearchResult>> per_width;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      set_parallel_threads(threads);
      Rng r_batch(51), r_single(51);
      FeFetCamArray batched(fine_noisy_config(24, 64), r_batch);
      FeFetCamArray single(fine_noisy_config(24, 64), r_single);
      Rng data(52);
      const std::vector<std::vector<int>> words = random_words(24, 64, batched.levels(), data);
      for (std::size_t r = 0; r < words.size(); ++r) {
        batched.write_word(r, words[r]);
        single.write_word(r, words[r]);
      }
      const std::vector<std::vector<int>> queries = query_stream(words, 19, batched.levels(), data);
      const std::vector<SearchResult> got = batched.search_batch(queries, repeats);
      ASSERT_EQ(got.size(), queries.size() * repeats);
      for (std::size_t k = 0; k < got.size(); ++k)
        expect_same_result(got[k], single.search(queries[k / repeats]), "batch vs calls", k);
      per_width.push_back(got);
    }
    for (std::size_t k = 0; k < per_width[0].size(); ++k)
      expect_same_result(per_width[1][k], per_width[0][k], "8 lanes vs 1", k);
  }
  set_parallel_threads(0);
}

// The same for a partitioned CAM, whose segments search side by side.
TEST(PartitionedCam, SearchBatchMatchesSearchCalls) {
  set_parallel_threads(8);
  for (const Aggregation agg : {Aggregation::kVote, Aggregation::kSumSensed}) {
    for (const std::size_t repeats : {std::size_t{1}, std::size_t{3}}) {
      std::vector<std::vector<int>> words;
      const PartitionedCam batched = faulted_partition(agg, words);
      const PartitionedCam single = faulted_partition(agg, words);
      Rng data(53);
      const std::vector<std::vector<int>> queries = query_stream(words, 19, 8, data);
      const std::vector<SearchResult> got = batched.search_batch(queries, repeats);
      ASSERT_EQ(got.size(), queries.size() * repeats);
      for (std::size_t k = 0; k < got.size(); ++k)
        expect_same_result(got[k], single.search(queries[k / repeats]), to_string(agg).c_str(),
                           k);
    }
  }
  set_parallel_threads(0);
}

// ---- RramTcamArray --------------------------------------------------------

RramTcamConfig ideal_tcam(std::size_t rows, std::size_t cols) {
  RramTcamConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  cfg.sense_levels = 256;
  return cfg;
}

TEST(RramTcam, HammingDistanceExactWithoutNoise) {
  Rng rng(16);
  RramTcamArray tcam(ideal_tcam(4, 16), rng);
  const std::vector<int> base(16, 1);
  tcam.write_word(0, base);
  std::vector<int> w1 = base;
  w1[3] = 0;
  tcam.write_word(1, w1);
  std::vector<int> w2 = base;
  w2[0] = w2[1] = w2[2] = 0;
  tcam.write_word(2, w2);
  tcam.write_word(3, std::vector<int>(16, 0));
  const SearchResult res = tcam.search(base);
  EXPECT_NEAR(res.sensed_distance[0], 0.0, 0.26);
  EXPECT_NEAR(res.sensed_distance[1], 1.0, 0.26);
  EXPECT_NEAR(res.sensed_distance[2], 3.0, 0.26);
  EXPECT_NEAR(res.sensed_distance[3], 16.0, 0.26);
  EXPECT_EQ(res.best_row, 0u);
}

TEST(RramTcam, DontCareContributesZero) {
  Rng rng(17);
  RramTcamArray tcam(ideal_tcam(2, 8), rng);
  tcam.write_word(0, {1, 1, 1, 1, kDontCare, kDontCare, kDontCare, kDontCare});
  tcam.write_word(1, {1, 1, 1, 1, 0, 0, 0, 0});
  const SearchResult res = tcam.search({1, 1, 1, 1, 1, 1, 1, 1});
  EXPECT_NEAR(res.sensed_distance[0], 0.0, 0.3);
  EXPECT_NEAR(res.sensed_distance[1], 4.0, 0.3);
}

TEST(RramTcam, IdealDistanceCountsMismatches) {
  Rng rng(18);
  RramTcamArray tcam(ideal_tcam(1, 6), rng);
  tcam.write_word(0, {1, 0, kDontCare, 1, 0, 1});
  EXPECT_EQ(tcam.ideal_distance(0, {1, 0, 1, 1, 0, 1}), 0u);
  EXPECT_EQ(tcam.ideal_distance(0, {0, 1, 0, 0, 1, 0}), 5u);
}

TEST(RramTcam, VariationPerturbsSensedDistances) {
  RramTcamConfig cfg = ideal_tcam(8, 64);
  cfg.apply_variation = true;
  cfg.sense_levels = 1024;
  Rng rng(19);
  RramTcamArray tcam(cfg, rng);
  Rng data(20);
  std::vector<int> word(64);
  for (int& b : word) b = data.bernoulli(0.5) ? 1 : 0;
  for (std::size_t r = 0; r < 8; ++r) tcam.write_word(r, word);
  const SearchResult res = tcam.search(word);
  // All rows store the same word; with device variation the sensed values
  // spread around 0 but must stay small.
  for (double d : res.sensed_distance) EXPECT_LT(d, 4.0);
}

TEST(RramTcam, AgingDriftsDistances) {
  RramTcamConfig cfg = ideal_tcam(1, 128);
  cfg.apply_variation = true;
  Rng rng(21);
  RramTcamArray tcam(cfg, rng);
  Rng data(22);
  std::vector<int> word(128);
  for (int& b : word) b = data.bernoulli(0.5) ? 1 : 0;
  tcam.write_word(0, word);
  const double before = tcam.search(word).sensed_distance[0];
  tcam.age(1.0e4);
  const double after = tcam.search(word).sensed_distance[0];
  EXPECT_GE(after, before);  // relaxation can only blur toward mid states
}

TEST(RramTcam, VariationAwareMappingKeepsMarginUsable) {
  // With the high-variation band centred mid-range, the co-optimised mapping
  // must still produce a clean Hamming staircase.
  RramTcamConfig cfg = ideal_tcam(3, 32);
  cfg.variation_aware_mapping = true;
  Rng rng(23);
  RramTcamArray tcam(cfg, rng);
  const std::vector<int> base(32, 1);
  tcam.write_word(0, base);
  std::vector<int> w1 = base;
  w1[0] = 0;
  tcam.write_word(1, w1);
  std::vector<int> w2 = base;
  w2[0] = w2[1] = 0;
  tcam.write_word(2, w2);
  const SearchResult res = tcam.search(base);
  EXPECT_LT(res.sensed_distance[0], res.sensed_distance[1]);
  EXPECT_LT(res.sensed_distance[1], res.sensed_distance[2]);
}

TEST(RramTcam, RejectsBadBits) {
  Rng rng(24);
  RramTcamArray tcam(ideal_tcam(1, 4), rng);
  EXPECT_THROW(tcam.write_word(0, {0, 1, 2, 0}), PreconditionError);
  tcam.write_word(0, {0, 1, 0, 1});
  EXPECT_THROW(tcam.search({0, 1, 3, 1}), PreconditionError);  // not 0/1/X
  EXPECT_NO_THROW(tcam.search({0, 1, kDontCare, 1}));  // masked queries are legal
}

TEST(RramTcam, MaskedQuerySkipsColumns) {
  Rng rng(60);
  RramTcamArray tcam(ideal_tcam(2, 8), rng);
  tcam.write_word(0, {1, 1, 1, 1, 0, 0, 0, 0});
  tcam.write_word(1, {1, 1, 0, 0, 0, 0, 0, 0});
  // Mask the disagreeing columns: both rows exact-match.
  std::vector<int> q = {1, 1, kDontCare, kDontCare, 0, 0, 0, 0};
  EXPECT_EQ(tcam.exact_match(q).size(), 2u);
  // Unmask one disagreeing column: only row 0 matches.
  q[2] = 1;
  const auto rows = tcam.exact_match(q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
  // Fully masked queries are rejected.
  EXPECT_THROW(tcam.search(std::vector<int>(8, kDontCare)), PreconditionError);
}

TEST(RramTcam, WriteCellUpdatesSingleBit) {
  Rng rng(61);
  RramTcamArray tcam(ideal_tcam(1, 4), rng);
  tcam.write_word(0, {0, 0, 0, 0});
  tcam.write_cell(0, 2, 1);
  EXPECT_EQ(tcam.stored_bit(0, 2), 1);
  EXPECT_EQ(tcam.stored_bit(0, 1), 0);
  EXPECT_EQ(tcam.ideal_distance(0, {0, 0, 1, 0}), 0u);
}

// ---- CamProcessor (CAPE-style general-purpose compute) ----------------------

RramTcamConfig processor_config(std::size_t rows, std::size_t cols) {
  RramTcamConfig cfg = ideal_tcam(rows, cols);
  cfg.sense_levels = 256;
  return cfg;
}

TEST(CamProcessor, BitwiseTruthTablesAcrossAllRows) {
  Rng rng(62);
  CamProcessor proc(processor_config(4, 6), rng);
  // Columns: 0 = a, 1 = b, 2 = AND, 3 = OR, 4 = XOR, 5 = NOT a.
  const int a_bits[4] = {0, 0, 1, 1};
  const int b_bits[4] = {0, 1, 0, 1};
  for (std::size_t r = 0; r < 4; ++r)
    proc.load_row(r, {a_bits[r], b_bits[r], 0, 0, 0, 0});

  proc.apply(2, {0, 1}, {0, 0, 0, 1});  // AND
  proc.apply(3, {0, 1}, {0, 1, 1, 1});  // OR
  proc.apply(4, {0, 1}, {0, 1, 1, 0});  // XOR
  proc.apply(5, {0}, {1, 0});           // NOT

  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(proc.bit(r, 2), a_bits[r] & b_bits[r]) << "AND row " << r;
    EXPECT_EQ(proc.bit(r, 3), a_bits[r] | b_bits[r]) << "OR row " << r;
    EXPECT_EQ(proc.bit(r, 4), a_bits[r] ^ b_bits[r]) << "XOR row " << r;
    EXPECT_EQ(proc.bit(r, 5), 1 - a_bits[r]) << "NOT row " << r;
  }
}

TEST(CamProcessor, RowParallelAdderCorrectOnRandomOperands) {
  constexpr std::size_t kRows = 16;
  constexpr std::size_t kWidth = 4;
  // Layout: a[0..3], b[4..7], out[8..11], carry=12, scratch=13.
  Rng rng(63);
  CamProcessor proc(processor_config(kRows, 14), rng);
  Rng data(64);
  std::vector<unsigned> a_vals(kRows), b_vals(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    a_vals[r] = data.uniform_u32(16);
    b_vals[r] = data.uniform_u32(16);
    std::vector<int> row(14, 0);
    for (std::size_t i = 0; i < kWidth; ++i) {
      row[i] = static_cast<int>((a_vals[r] >> i) & 1u);
      row[4 + i] = static_cast<int>((b_vals[r] >> i) & 1u);
    }
    proc.load_row(r, row);
  }
  proc.add_words({0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, 12, 13);
  for (std::size_t r = 0; r < kRows; ++r) {
    unsigned sum = 0;
    for (std::size_t i = 0; i < kWidth; ++i)
      sum |= static_cast<unsigned>(proc.bit(r, 8 + i)) << i;
    const unsigned carry = static_cast<unsigned>(proc.bit(r, 12));
    EXPECT_EQ(sum | (carry << kWidth), a_vals[r] + b_vals[r]) << "row " << r;
  }
}

TEST(CamProcessor, CostAccountingCountsPasses) {
  Rng rng(65);
  CamProcessor proc(processor_config(4, 4), rng);
  proc.load_row(0, {1, 1, 0, 0});
  proc.reset_cost();
  proc.apply(2, {0, 1}, {0, 0, 0, 1});  // AND: 1 clear + 1 minterm
  EXPECT_EQ(proc.cost().searches, 1u);
  EXPECT_EQ(proc.cost().writes, 2u);  // clear + set pass
  EXPECT_GT(proc.cost().total.latency, 0.0);
  EXPECT_GT(proc.cost().total.energy, 0.0);
}

TEST(CamProcessor, RejectsBadArguments) {
  Rng rng(66);
  CamProcessor proc(processor_config(2, 4), rng);
  EXPECT_THROW(proc.apply(0, {0}, {1, 0}), PreconditionError);        // dst == src
  EXPECT_THROW(proc.apply(1, {0}, {1, 0, 1}), PreconditionError);     // bad table size
  EXPECT_THROW(proc.load_row(0, {0, 1, 2, 0}), PreconditionError);    // non-binary data
}

// ---- FeFetAcamArray -----------------------------------------------------

TEST(Acam, MatchesInsideStoredRange) {
  AcamConfig cfg;
  cfg.rows = 2;
  cfg.cols = 2;
  cfg.apply_variation = false;
  Rng rng(25);
  FeFetAcamArray acam(cfg, rng);
  acam.write_word(0, {{0.2, 0.4}, {0.6, 0.9}});
  acam.write_word(1, {{0.0, 0.1}, {0.0, 0.1}});
  const auto hits = acam.exact_match({0.3, 0.7});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_TRUE(acam.exact_match({0.5, 0.5}).empty());
}

TEST(Acam, VariationShiftsBounds) {
  AcamConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  cfg.apply_variation = true;
  cfg.fefet.sigma_program = 0.15;
  Rng rng(26);
  FeFetAcamArray acam(cfg, rng);
  acam.write_word(0, {{0.4, 0.6}});
  const AnalogRange pr = acam.programmed_range(0, 0);
  EXPECT_NE(pr.lo, 0.4);  // variation applied
  EXPECT_LE(pr.lo, pr.hi);
  EXPECT_GE(pr.lo, 0.0);
  EXPECT_LE(pr.hi, 1.0);
}

TEST(Acam, RejectsInvalidRanges) {
  AcamConfig cfg;
  cfg.rows = 1;
  cfg.cols = 1;
  Rng rng(27);
  FeFetAcamArray acam(cfg, rng);
  EXPECT_THROW(acam.write_word(0, {{0.7, 0.3}}), PreconditionError);
  EXPECT_THROW(acam.write_word(0, {{-0.1, 0.5}}), PreconditionError);
}

// ---- PartitionedCam --------------------------------------------------------

PartitionedCamConfig partition_config(std::size_t rows, std::size_t seg_cols,
                                      std::size_t total_width, Aggregation agg) {
  PartitionedCamConfig cfg;
  cfg.subarray = ideal_config(rows, seg_cols, 2);
  cfg.total_width = total_width;
  cfg.aggregation = agg;
  return cfg;
}

TEST(PartitionedCam, SegmentCountCeils) {
  Rng rng(28);
  PartitionedCam cam(partition_config(4, 32, 100, Aggregation::kVote), rng);
  EXPECT_EQ(cam.segments(), 4u);  // ceil(100/32)
}

TEST(PartitionedCam, SingleSegmentAgreesWithIdeal) {
  Rng rng(29);
  PartitionedCam cam(partition_config(6, 64, 64, Aggregation::kSumSensed), rng);
  Rng data(30);
  std::vector<std::vector<int>> words(6, std::vector<int>(64));
  for (auto& w : words)
    for (int& d : w) d = static_cast<int>(data.uniform_u32(4));
  for (std::size_t r = 0; r < 6; ++r) cam.write_word(r, words[r]);
  for (std::size_t r = 0; r < 6; ++r) {
    std::vector<int> q = words[r];
    q[5] = (q[5] + 1) % 4;
    EXPECT_EQ(cam.search(q).best_row, cam.ideal_best_match(q));
  }
}

TEST(PartitionedCam, VoteAggregationCanDisagreeWithIdeal) {
  // The Fig. 3F-i construction: row 0 is globally closest but loses most
  // segments 'narrowly'; row 1 wins more segment votes.
  Rng rng(31);
  PartitionedCam cam(partition_config(2, 4, 12, Aggregation::kVote), rng);
  //          |  seg 0    |  seg 1    |  seg 2    |
  // Row 0 differs from the query by 2 in one segment only -> wins 1 segment.
  // Row 1 differs by 1 in every segment -> wins 2 segments by a hair... but
  // globally row 1 distance = 3 > row 0 distance = 4? Construct numerically:
  // query:   0 0 0 0 | 0 0 0 0 | 0 0 0 0
  // row 0:   0 0 0 0 | 0 0 0 0 | 2 2 0 0   (SE distance 8, wins segs 0,1)
  // row 1:   1 0 0 0 | 1 0 0 0 | 0 0 0 0   (SE distance 2, wins seg 2)
  cam.write_word(0, {0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0});
  cam.write_word(1, {1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0});
  const std::vector<int> q(12, 0);
  EXPECT_EQ(cam.ideal_best_match(q), 1u);
  EXPECT_EQ(cam.search(q).best_row, 0u);  // vote aggregation picks the wrong row
}

TEST(PartitionedCam, SumSensedFixesTheVoteFailure) {
  Rng rng(32);
  PartitionedCam cam(partition_config(2, 4, 12, Aggregation::kSumSensed), rng);
  cam.write_word(0, {0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0});
  cam.write_word(1, {1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(cam.search(std::vector<int>(12, 0)).best_row, 1u);
}

TEST(PartitionedCam, PaddedTailIsNeutral) {
  Rng rng(33);
  PartitionedCam cam(partition_config(2, 8, 10, Aggregation::kSumSensed), rng);
  cam.write_word(0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  cam.write_word(1, {3, 3, 3, 3, 3, 3, 3, 3, 3, 3});
  const SearchResult res = cam.search(std::vector<int>(10, 0));
  EXPECT_EQ(res.best_row, 0u);
  EXPECT_NEAR(res.sensed_distance[0], 0.0, 0.5);
}

TEST(PartitionedCam, ParallelSegmentsLatencyIsMax) {
  Rng rng(34);
  PartitionedCam one(partition_config(2, 32, 32, Aggregation::kVote), rng);
  PartitionedCam four(partition_config(2, 32, 128, Aggregation::kVote), rng);
  std::vector<int> w32(32, 1), w128(128, 1);
  one.write_word(0, w32);
  one.write_word(1, w32);
  four.write_word(0, w128);
  four.write_word(1, w128);
  const double lat1 = one.search(w32).cost.latency;
  const double lat4 = four.search(w128).cost.latency;
  const double en1 = one.search(w32).cost.energy;
  const double en4 = four.search(w128).cost.energy;
  EXPECT_NEAR(lat4, lat1, 0.2 * lat1);   // parallel: same beat
  EXPECT_NEAR(en4, 4.0 * en1, 0.2 * en4);  // energy: per segment
}

}  // namespace
}  // namespace xlds::cam
