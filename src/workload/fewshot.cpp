#include "workload/fewshot.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace xlds::workload {

FewShotGenerator::FewShotGenerator(FewShotSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed, 0xF357) {
  XLDS_REQUIRE(spec_.image_side >= 8);
  XLDS_REQUIRE(spec_.n_classes >= 2);
  prototypes_.resize(spec_.n_classes);
  tables_.resize(spec_.n_classes);
  for (auto& waves : prototypes_) {
    waves.resize(spec_.prototype_waves);
    for (Wave& w : waves) {
      w.fx = rng_.uniform(0.5, 3.0);
      w.fy = rng_.uniform(0.5, 3.0);
      w.phase = rng_.uniform(0.0, 2.0 * std::numbers::pi);
      w.amp = rng_.uniform(0.3, 1.0);
    }
  }
}

double FewShotGenerator::prototype_pixel(std::size_t cls, double x, double y) const {
  double v = 0.0;
  double amp_sum = 0.0;
  for (const Wave& w : prototypes_[cls]) {
    v += w.amp * std::sin(2.0 * std::numbers::pi * (w.fx * x + w.fy * y) + w.phase);
    amp_sum += w.amp;
  }
  // Normalise into [0, 1].
  return 0.5 + 0.5 * v / amp_sum;
}

const std::vector<double>& FewShotGenerator::prototype_table(std::size_t cls) {
  std::vector<double>& table = tables_[cls];
  if (!table.empty()) return table;
  // A shifted sample reads the prototype at x = (px + dx) / side with
  // px + dx an integer in [-max_shift, side + max_shift), and
  // double(px) + dx is exact, so tabulating the integer grid reproduces
  // every pixel bit for bit.
  const auto shift = static_cast<int>(spec_.max_shift);
  const auto end = static_cast<int>(spec_.image_side) + shift;
  const auto side = static_cast<double>(spec_.image_side);
  const std::size_t span = spec_.image_side + 2 * spec_.max_shift;
  table.resize(span * span);
  std::size_t i = 0;
  for (int gy = -shift; gy < end; ++gy)
    for (int gx = -shift; gx < end; ++gx)
      table[i++] = prototype_pixel(cls, static_cast<double>(gx) / side,
                                   static_cast<double>(gy) / side);
  return table;
}

std::vector<double> FewShotGenerator::sample_image(std::size_t universe_class) {
  XLDS_REQUIRE(universe_class < spec_.n_classes);
  const std::size_t side = spec_.image_side;
  const auto shift_range = static_cast<int>(spec_.max_shift);
  const int dx = shift_range == 0 ? 0 : static_cast<int>(rng_.uniform_u32(2 * shift_range + 1)) -
                                            shift_range;
  const int dy = shift_range == 0 ? 0 : static_cast<int>(rng_.uniform_u32(2 * shift_range + 1)) -
                                            shift_range;
  const std::vector<double>& table = prototype_table(universe_class);
  const std::size_t span = side + 2 * spec_.max_shift;
  const std::size_t x0 = static_cast<std::size_t>(shift_range + dx);
  const std::size_t y0 = static_cast<std::size_t>(shift_range + dy);
  std::vector<double> img(side * side);
  for (std::size_t py = 0; py < side; ++py) {
    const double* row = table.data() + (y0 + py) * span + x0;
    for (std::size_t px = 0; px < side; ++px) {
      const double v = row[px] + rng_.normal(0.0, spec_.pixel_noise);
      img[py * side + px] = std::clamp(v, 0.0, 1.0);
    }
  }
  return img;
}

Episode FewShotGenerator::sample_episode(std::size_t n_way, std::size_t k_shot,
                                         std::size_t queries_per_class) {
  XLDS_REQUIRE(n_way >= 2 && n_way <= spec_.n_classes);
  XLDS_REQUIRE(k_shot >= 1 && queries_per_class >= 1);
  Episode ep;
  ep.n_way = n_way;
  ep.k_shot = k_shot;
  const std::vector<std::size_t> classes = rng_.sample_without_replacement(spec_.n_classes, n_way);
  for (std::size_t local = 0; local < n_way; ++local) {
    for (std::size_t s = 0; s < k_shot; ++s) {
      ep.support_x.push_back(sample_image(classes[local]));
      ep.support_y.push_back(local);
    }
    for (std::size_t q = 0; q < queries_per_class; ++q) {
      ep.query_x.push_back(sample_image(classes[local]));
      ep.query_y.push_back(local);
    }
  }
  return ep;
}

void FewShotGenerator::sample_flat(std::size_t classes, std::size_t per_class,
                                   std::vector<std::vector<double>>& xs,
                                   std::vector<std::size_t>& ys) {
  XLDS_REQUIRE(classes >= 2 && classes <= spec_.n_classes);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      xs.push_back(sample_image(cls));
      ys.push_back(cls);
    }
  }
}

}  // namespace xlds::workload
