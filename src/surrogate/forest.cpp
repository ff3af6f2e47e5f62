#include "surrogate/forest.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xlds::surrogate {

namespace {

/// Fixed-order per-output mean of the rows in `rows` (indices into samples).
std::vector<double> mean_response(const std::vector<Sample>& samples,
                                  const std::vector<std::size_t>& rows,
                                  std::size_t n_outputs) {
  std::vector<double> mean(n_outputs, 0.0);
  for (const std::size_t r : rows)
    for (std::size_t k = 0; k < n_outputs; ++k) mean[k] += samples[r].y[k];
  const double inv = 1.0 / static_cast<double>(rows.size());
  for (double& m : mean) m *= inv;
  return mean;
}

/// Fixed-order per-output variance (population) of the rows.
std::vector<double> variance_response(const std::vector<Sample>& samples,
                                      const std::vector<std::size_t>& rows,
                                      const std::vector<double>& mean) {
  std::vector<double> var(mean.size(), 0.0);
  for (const std::size_t r : rows)
    for (std::size_t k = 0; k < mean.size(); ++k) {
      const double d = samples[r].y[k] - mean[k];
      var[k] += d * d;
    }
  const double inv = 1.0 / static_cast<double>(rows.size());
  for (double& v : var) v *= inv;
  return var;
}

}  // namespace

RegressionForest::RegressionForest(ForestConfig config) : config_(config) {
  XLDS_REQUIRE(config_.trees > 0);
  XLDS_REQUIRE(config_.min_split >= 2);
}

void RegressionForest::fit(const std::vector<Sample>& samples) {
  XLDS_REQUIRE_MSG(!samples.empty(), "cannot fit a forest on an empty history");
  n_features_ = samples.front().x.size();
  n_outputs_ = samples.front().y.size();
  XLDS_REQUIRE(n_features_ > 0 && n_outputs_ > 0);
  for (const Sample& s : samples)
    XLDS_REQUIRE_MSG(s.x.size() == n_features_ && s.y.size() == n_outputs_,
                     "inconsistent sample dimensions in forest history");

  // One stream per tree, derived from (seed, tree index) — not forked
  // sequentially — so the trees can be grown in any order on any number of
  // threads and still come out bit-identical.
  trees_ = parallel_map<Tree>(config_.trees, [&](std::size_t t) {
    return fit_tree(samples, static_cast<std::uint64_t>(t));
  });
}

RegressionForest::Tree RegressionForest::fit_tree(const std::vector<Sample>& samples,
                                                  std::uint64_t stream) const {
  Rng rng(config_.seed, stream);
  const std::size_t k_default =
      (n_features_ + 2) / 3;  // ceil(n_features / 3), >= 1 for n_features >= 1
  const std::size_t k_features =
      config_.features_per_split != 0
          ? std::min(config_.features_per_split, n_features_)
          : std::max<std::size_t>(1, k_default);

  Tree tree;
  // Explicit work stack instead of recursion: node indices stay dense and
  // allocation order is a pure function of the split sequence.
  struct Pending {
    std::uint32_t node = 0;
    std::vector<std::size_t> rows;
    std::size_t depth = 0;
  };
  std::vector<Pending> stack;

  std::vector<std::size_t> all_rows(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) all_rows[i] = i;
  tree.nodes.emplace_back();
  stack.push_back({0, std::move(all_rows), 0});

  while (!stack.empty()) {
    Pending task = std::move(stack.back());
    stack.pop_back();
    const std::vector<std::size_t>& rows = task.rows;

    const std::vector<double> mean = mean_response(samples, rows, n_outputs_);
    if (rows.size() < config_.min_split || task.depth >= config_.max_depth) {
      tree.nodes[task.node].value = mean;
      continue;
    }
    const std::vector<double> parent_var = variance_response(samples, rows, mean);
    double total_var = 0.0;
    for (const double v : parent_var) total_var += v;
    if (total_var <= 0.0) {  // pure node: every response identical
      tree.nodes[task.node].value = mean;
      continue;
    }

    // Extra-trees split: K random feature candidates, ONE uniform random
    // threshold each, best normalised variance reduction wins.  Candidate
    // features are visited in ascending index order (the draw is sorted) so
    // ties break on feature index, never on sampling order.
    std::vector<std::size_t> feats = rng.sample_without_replacement(n_features_, k_features);
    std::sort(feats.begin(), feats.end());

    constexpr double kVarEps = 1e-30;
    double best_score = 0.0;
    std::int32_t best_feature = -1;
    double best_threshold = 0.0;
    for (const std::size_t f : feats) {
      double lo = samples[rows.front()].x[f], hi = lo;
      for (const std::size_t r : rows) {
        lo = std::min(lo, samples[r].x[f]);
        hi = std::max(hi, samples[r].x[f]);
      }
      // Always consume the draw, valid feature or not: the stream position
      // must be a pure function of the candidate list, not of the data.
      const double threshold = rng.uniform(lo, hi);
      if (!(hi > lo)) continue;  // constant feature on this node

      std::vector<std::size_t> left, right;
      for (const std::size_t r : rows)
        (samples[r].x[f] < threshold ? left : right).push_back(r);
      if (left.empty() || right.empty()) continue;

      const std::vector<double> lm = mean_response(samples, left, n_outputs_);
      const std::vector<double> rm = mean_response(samples, right, n_outputs_);
      const std::vector<double> lv = variance_response(samples, left, lm);
      const std::vector<double> rv = variance_response(samples, right, rm);
      const double wl = static_cast<double>(left.size()) / static_cast<double>(rows.size());
      const double wr = 1.0 - wl;
      // Per-output normalised reduction, summed in output order, so every
      // objective contributes on its own scale (latency in seconds and
      // accuracy in [0,1] would otherwise never share a split decision).
      double score = 0.0;
      for (std::size_t k = 0; k < n_outputs_; ++k)
        score += (parent_var[k] - wl * lv[k] - wr * rv[k]) / (parent_var[k] + kVarEps);
      if (score > best_score) {
        best_score = score;
        best_feature = static_cast<std::int32_t>(f);
        best_threshold = threshold;
      }
    }

    if (best_feature < 0) {  // no candidate produced a real partition
      tree.nodes[task.node].value = mean;
      continue;
    }

    std::vector<std::size_t> left, right;
    for (const std::size_t r : rows)
      (samples[r].x[static_cast<std::size_t>(best_feature)] < best_threshold ? left : right)
          .push_back(r);

    const auto li = static_cast<std::uint32_t>(tree.nodes.size());
    tree.nodes.emplace_back();
    const auto ri = static_cast<std::uint32_t>(tree.nodes.size());
    tree.nodes.emplace_back();
    Node& node = tree.nodes[task.node];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = li;
    node.right = ri;
    // Right pushed first so the left child is processed (and numbered) next —
    // the conventional depth-first layout.
    stack.push_back({ri, std::move(right), task.depth + 1});
    stack.push_back({li, std::move(left), task.depth + 1});
  }
  return tree;
}

const std::vector<double>& RegressionForest::tree_value(const Tree& tree,
                                                        const std::vector<double>& x) const {
  std::size_t n = 0;
  while (tree.nodes[n].feature >= 0) {
    const Node& node = tree.nodes[n];
    n = x[static_cast<std::size_t>(node.feature)] < node.threshold ? node.left : node.right;
  }
  return tree.nodes[n].value;
}

RegressionForest::Prediction RegressionForest::predict(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(fitted(), "predict() before fit()");
  XLDS_REQUIRE(x.size() == n_features_);
  Prediction p;
  p.mean.assign(n_outputs_, 0.0);
  p.std.assign(n_outputs_, 0.0);
  // Welford-free two-pass in fixed tree order: sums first, then squared
  // deviations, both left-to-right — bit-identical everywhere.
  std::vector<const std::vector<double>*> leaf(trees_.size());
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    leaf[t] = &tree_value(trees_[t], x);
    for (std::size_t k = 0; k < n_outputs_; ++k) p.mean[k] += (*leaf[t])[k];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& m : p.mean) m *= inv;
  for (std::size_t t = 0; t < trees_.size(); ++t)
    for (std::size_t k = 0; k < n_outputs_; ++k) {
      const double d = (*leaf[t])[k] - p.mean[k];
      p.std[k] += d * d;
    }
  for (double& s : p.std) s = std::sqrt(s * inv);
  return p;
}

std::uint64_t RegressionForest::state_hash() const {
  std::uint64_t h = util::fnv1a64("xlds-forest-v1", 14);
  const auto mix = [&h](const void* p, std::size_t n) { h = util::fnv1a64(p, n, h); };
  const std::uint64_t dims[2] = {n_features_, n_outputs_};
  mix(dims, sizeof dims);
  for (const Tree& tree : trees_) {
    const std::uint64_t n = tree.nodes.size();
    mix(&n, sizeof n);
    for (const Node& node : tree.nodes) {
      mix(&node.feature, sizeof node.feature);
      mix(&node.threshold, sizeof node.threshold);
      mix(&node.left, sizeof node.left);
      mix(&node.right, sizeof node.right);
      if (!node.value.empty()) mix(node.value.data(), node.value.size() * sizeof(double));
    }
  }
  return h;
}

}  // namespace xlds::surrogate
