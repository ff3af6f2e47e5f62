#include "dse/space.hpp"

#include "util/error.hpp"
#include "util/hash.hpp"

namespace xlds::dse {

namespace {

std::uint64_t hash_axes(const core::SpaceAxes& axes, const std::string& application) {
  std::uint64_t h = util::fnv1a64("xlds-space-v1", 13);
  const auto mix_int = [&h](std::uint32_t v) { h = util::fnv1a64(&v, sizeof v, h); };
  mix_int(static_cast<std::uint32_t>(axes.devices.size()));
  for (const auto d : axes.devices) mix_int(static_cast<std::uint32_t>(d));
  mix_int(static_cast<std::uint32_t>(axes.archs.size()));
  for (const auto a : axes.archs) mix_int(static_cast<std::uint32_t>(a));
  mix_int(static_cast<std::uint32_t>(axes.algos.size()));
  for (const auto g : axes.algos) mix_int(static_cast<std::uint32_t>(g));
  return util::fnv1a64(application.data(), application.size(), h);
}

}  // namespace

SearchSpace::SearchSpace(core::SpaceAxes axes, std::string application)
    : axes_(axes.resolved()), application_(std::move(application)) {
  XLDS_REQUIRE(!application_.empty());
  size_ = core::space_size(axes_);
  for (std::size_t i = 0; i < size_; ++i)
    if (!culled(i)) ++viable_;
  hash_ = hash_axes(axes_, application_);
}

core::DesignPoint SearchSpace::at(std::size_t index) const {
  return core::point_at(axes_, index, application_);
}

std::size_t SearchSpace::index_of(const core::DesignPoint& p) const {
  return core::point_index(axes_, p);
}

bool SearchSpace::culled(std::size_t index) const {
  return core::incompatibility(at(index)).has_value();
}

}  // namespace xlds::dse
