#include "core/suspicion.hpp"

#include <cassert>

namespace p2panon::core {

SuspicionTracker::SuspicionTracker(std::size_t node_count, double penalty)
    : counts_(node_count, 0), penalty_(penalty) {
  assert(penalty > 0.0 && penalty <= 1.0);
  double saturated = 1.0;
  for (std::uint32_t i = 0; i < kMaxCount; ++i) saturated *= penalty_;
  if (saturated > max_factor_) max_factor_ = saturated;
}

void SuspicionTracker::record_timeout(net::NodeId suspect) {
  auto& c = counts_.at(suspect);
  if (c < kMaxCount) ++c;
  ++epoch_;
}

void SuspicionTracker::record_success(net::NodeId node) {
  auto& c = counts_.at(node);
  if (c == 0) return;
  c >>= 1;
  ++epoch_;
}

double SuspicionTracker::availability_factor(net::NodeId v) const {
  double factor = 1.0;
  // Iterative multiply (counts are <= kMaxCount): bitwise reproducible
  // without depending on the libm pow implementation.
  for (std::uint32_t i = 0; i < counts_.at(v); ++i) factor *= penalty_;
  return factor;
}

}  // namespace p2panon::core
