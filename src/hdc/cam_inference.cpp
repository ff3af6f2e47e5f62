#include "hdc/cam_inference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hdc/encoder.hpp"
#include "kernels/mvm.hpp"
#include "util/error.hpp"

namespace xlds::hdc {

namespace {

cam::PartitionedCamConfig make_partition_config(const HdcModel& model,
                                                const CamInferenceConfig& config) {
  XLDS_REQUIRE_MSG(config.subarray.fefet.bits == model.config().element_bits,
                   "CAM cell stores " << config.subarray.fefet.bits
                                      << " bits but the model quantises to "
                                      << model.config().element_bits);
  cam::PartitionedCamConfig pc;
  pc.subarray = config.subarray;
  pc.subarray.rows = model.n_classes();
  pc.total_width = model.config().hv_dim;
  pc.aggregation = config.aggregation;
  return pc;
}

}  // namespace

HdcCamInference::HdcCamInference(const HdcModel& model, CamInferenceConfig config, Rng& rng)
    : model_(model), config_(config), cam_(make_partition_config(model, config), rng) {
  for (std::size_t cls = 0; cls < model_.n_classes(); ++cls)
    cam_.write_word(cls, model_.class_digits(cls));

  if (config_.analog_encode) {
    const auto* projection_encoder = dynamic_cast<const HdcEncoder*>(&model_.encoder());
    XLDS_REQUIRE_MSG(projection_encoder != nullptr,
                     "analog encode needs the random-projection encoder");
    encoder_.emplace(config_.encoder_tiles, projection_encoder->input_dim(),
                     projection_encoder->hv_dim(), rng);
    encoder_->program_weights(projection_encoder->projection());
    // The model encodes mean-centred features: y = P(x - mu)/sqrt(F).  The
    // crossbar sees raw x in [0, 1]; the constant P mu / sqrt(F) term is
    // subtracted digitally (it is exactly encode(mu)).
    encode_bias_ = projection_encoder->encode(model_.feature_mean());
  }
}

std::vector<int> HdcCamInference::query_digits(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == model_.encoder().input_dim(),
                   "input " << x.size() << " != " << model_.encoder().input_dim());
  return std::move(query_digits_batch(MatrixD::one_row(x))[0]);
}

std::size_t HdcCamInference::classify(const std::vector<double>& x, std::size_t votes) const {
  return classify_digits(query_digits(x), votes);
}

std::size_t HdcCamInference::classify_digits(const std::vector<int>& q, std::size_t votes) const {
  return classify_digits_batch({q}, votes)[0];
}

std::vector<std::size_t> HdcCamInference::classify_digits_batch(
    const std::vector<std::vector<int>>& qs, std::size_t votes) const {
  XLDS_REQUIRE_MSG(votes >= 1 && votes % 2 == 1, "votes must be odd, got " << votes);
  const std::vector<cam::SearchResult> results = cam_.search_batch(qs, votes);
  std::vector<std::size_t> preds(qs.size());
  std::vector<std::size_t> tally(model_.n_classes());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    std::fill(tally.begin(), tally.end(), 0);
    for (std::size_t v = 0; v < votes; ++v) ++tally[results[i * votes + v].best_row];
    std::size_t best = 0;
    for (std::size_t cls = 1; cls < tally.size(); ++cls)
      if (tally[cls] > tally[best]) best = cls;
    preds[i] = best;
  }
  return preds;
}

std::vector<std::vector<int>> HdcCamInference::query_digits_batch(const MatrixD& xs) const {
  std::vector<std::vector<int>> out(xs.rows());
  if (!encoder_.has_value()) {
    for (std::size_t b = 0; b < xs.rows(); ++b) out[b] = model_.query_digits(xs.row(b));
    return out;
  }
  const MatrixD y = encoder_->mvm_batch(xs);
  const double scale = 1.0 / std::sqrt(static_cast<double>(model_.encoder().input_dim()));
  std::vector<double> row(y.cols());
  for (std::size_t b = 0; b < y.rows(); ++b) {
    kernels::scale_sub(y.row_data(b), scale, encode_bias_.data(), row.data(), row.size());
    out[b] = model_.quantiser().digits(row);
  }
  return out;
}

std::size_t HdcCamInference::rewrite_class_words() {
  for (std::size_t cls = 0; cls < model_.n_classes(); ++cls)
    cam_.write_word(cls, model_.class_digits(cls));
  return model_.n_classes() * model_.config().hv_dim;
}

fault::FaultInjectionStats HdcCamInference::inject_faults(
    const fault::FaultSpec& spec, const fault::GracefulPolicies& policies, Rng& rng) {
  return cam_.inject_faults(spec, policies, rng);
}

void HdcCamInference::age(double dt) {
  cam_.age(dt);
  if (encoder_.has_value()) encoder_->age(dt);
}

xbar::MvmCost HdcCamInference::encode_cost() const {
  return encoder_.has_value() ? encoder_->mvm_cost() : xbar::MvmCost{};
}

double HdcCamInference::accuracy(const std::vector<std::vector<double>>& xs,
                                 const std::vector<std::size_t>& ys, std::size_t votes) const {
  XLDS_REQUIRE(xs.size() == ys.size());
  XLDS_REQUIRE(!xs.empty());
  const std::size_t dim = model_.encoder().input_dim();
  MatrixD batch(xs.size(), dim);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    XLDS_REQUIRE_MSG(xs[i].size() == dim, "input " << xs[i].size() << " != " << dim);
    std::copy(xs[i].begin(), xs[i].end(), batch.row_data(i));
  }
  const std::vector<std::size_t> preds = classify_digits_batch(query_digits_batch(batch), votes);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (preds[i] == ys[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

cam::SearchCost HdcCamInference::search_cost() const {
  // One representative query: all segments fire in parallel.
  const std::vector<int> zeros(model_.config().hv_dim, 0);
  return cam_.search(zeros).cost;
}

}  // namespace xlds::hdc
