// Episodic few-shot image workload (Sec. IV).
//
// Stands in for Omniglot/miniImageNet: each "character class" is a smooth
// random prototype image (sum of random 2-D sinusoids); samples are the
// prototype plus pixel noise and a small random translation.  Episodes are
// the standard N-way k-shot protocol MANN papers evaluate with: a support
// set written into the associative memory, then queries classified by
// nearest stored entry.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace xlds::workload {

struct FewShotSpec {
  std::size_t image_side = 20;
  std::size_t n_classes = 100;   ///< size of the class universe
  double pixel_noise = 0.06;
  std::size_t max_shift = 1;     ///< translation jitter, pixels
  std::size_t prototype_waves = 6;  ///< sinusoid components per prototype
};

/// One episode: support set (written to memory) and query set (classified).
/// Labels are episode-local, in [0, n_way).
struct Episode {
  std::vector<std::vector<double>> support_x;
  std::vector<std::size_t> support_y;
  std::vector<std::vector<double>> query_x;
  std::vector<std::size_t> query_y;
  std::size_t n_way = 0;
  std::size_t k_shot = 0;
};

class FewShotGenerator {
 public:
  FewShotGenerator(FewShotSpec spec, std::uint64_t seed);

  const FewShotSpec& spec() const noexcept { return spec_; }
  std::size_t image_size() const noexcept { return spec_.image_side * spec_.image_side; }

  /// Draw one N-way k-shot episode with `queries_per_class` queries.
  Episode sample_episode(std::size_t n_way, std::size_t k_shot, std::size_t queries_per_class);

  /// A labelled flat dataset drawn from the class universe — used to
  /// pre-train the CNN feature extractor on "background" classes.
  void sample_flat(std::size_t classes, std::size_t per_class,
                   std::vector<std::vector<double>>& xs, std::vector<std::size_t>& ys);

  /// Direct sample of a given universe class (for tests).
  std::vector<double> sample_image(std::size_t universe_class);

 private:
  struct Wave {
    double fx, fy, phase, amp;
  };

  double prototype_pixel(std::size_t cls, double x, double y) const;
  /// Class `cls`'s prototype on every integer pixel a shifted sample can
  /// touch, (side + 2 max_shift)^2 values, built on the class's first sample.
  const std::vector<double>& prototype_table(std::size_t cls);

  FewShotSpec spec_;
  Rng rng_;
  std::vector<std::vector<Wave>> prototypes_;
  std::vector<std::vector<double>> tables_;  ///< per class, empty until sampled
};

}  // namespace xlds::workload
