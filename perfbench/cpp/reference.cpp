#include "reference.h"

#include <algorithm>
#include <span>

#include "core/controller.h"
#include "core/factory.h"
#include "core/spec.h"

namespace perfbench {

Reference::Reference(const FleetWorkload& workload, const FleetInput& input,
                     std::uint64_t max_frames)
    : input_(input) {
  const std::size_t n = workload.streams;
  const std::size_t cycle = input_.cycle.size();
  offset_.assign(n + 1, 0);
  for (const Frame& f : input_.cycle) ++offset_[f.stream + 1];
  for (std::size_t s = 0; s < n; ++s) offset_[s + 1] += offset_[s];
  positions_.resize(cycle);
  std::vector<std::uint32_t> fill(offset_.begin(), offset_.end() - 1);
  for (std::uint32_t i = 0; i < cycle; ++i) positions_[fill[input_.cycle[i].stream]++] = i;

  const rejuv::core::DetectorConfig spec = rejuv::core::parse_spec(kFleetSpec);
  history_.assign(n, 0);
  triggers_.resize(n);
  std::vector<double> values;
  for (std::uint32_t s = 0; s < n; ++s) {
    rejuv::core::RejuvenationController ctrl(rejuv::core::make_detector(spec));
    values.clear();
    for (std::uint32_t k = offset_[s]; k < offset_[s + 1]; ++k) {
      values.push_back(input_.cycle[positions_[k]].value);
    }
    if (workload.prep_frames > 0) {
      ctrl.observe(input_.warmup[s].value);
      ctrl.observe_all(std::span(values).first(count_before(s, workload.prep_frames)));
      history_[s] = ctrl.observations();
    }
    const std::size_t before = ctrl.trigger_indices().size();
    ctrl.observe(input_.warmup[s].value);
    for (std::uint64_t c = 0; c < max_frames / cycle; ++c) ctrl.observe_all(values);
    ctrl.observe_all(std::span(values).first(count_before(s, max_frames % cycle)));
    triggers_[s].assign(ctrl.trigger_indices().begin() + static_cast<std::ptrdiff_t>(before),
                        ctrl.trigger_indices().end());
  }
}

std::size_t Reference::count_before(std::uint32_t s, std::uint64_t frames) const {
  const auto begin = positions_.begin() + offset_[s];
  const auto end = positions_.begin() + offset_[s + 1];
  return static_cast<std::size_t>(std::lower_bound(begin, end, frames) - begin);
}

std::vector<DecisionKey> Reference::expected(std::uint64_t frames) const {
  std::vector<DecisionKey> keys;
  const std::uint64_t cycle = input_.cycle.size();
  for (std::uint32_t s = 0; s < triggers_.size(); ++s) {
    const std::uint64_t limit = history_[s] + 1 +
                                (frames / cycle) * (offset_[s + 1] - offset_[s]) +
                                count_before(s, frames % cycle);
    for (const std::uint64_t obs : triggers_[s]) {
      if (obs > limit) break;
      keys.push_back({input_.external_ids[s], obs});
    }
  }
  return keys;
}

std::int64_t Reference::frame_of(std::uint32_t s, std::uint64_t obs) const {
  const std::uint64_t per_cycle = offset_[s + 1] - offset_[s];
  if (obs <= history_[s] + 1 || per_cycle == 0) return -1;
  const std::uint64_t m = obs - history_[s] - 2;
  return static_cast<std::int64_t>((m / per_cycle) * input_.cycle.size() +
                                   positions_[offset_[s] + m % per_cycle]);
}

}  // namespace perfbench
