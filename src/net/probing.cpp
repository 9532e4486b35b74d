#include "net/probing.hpp"

#include <cassert>

namespace p2panon::net {

namespace {

[[nodiscard]] core::PackedKey session_key(NodeId s, NodeId u) noexcept {
  return core::PackedKey::of(s, u);
}

}  // namespace

ProbingEstimator::ProbingEstimator(Overlay& overlay, const ProbingConfig& cfg,
                                   sim::rng::Stream stream)
    : overlay_(overlay),
      cfg_(cfg),
      stream_(stream),
      total_(overlay.size(), 0.0),
      epoch_(overlay.size(), 0),
      loop_active_(overlay.size(), false) {
  assert(cfg_.period > 0.0);
  overlay_.add_churn_observer(
      [this](NodeId node, bool online, sim::Time) { on_churn(node, online); });
  overlay_.add_neighbor_observer([this](NodeId s, NodeId old_nb, NodeId fresh, sim::Time) {
    on_neighbor_replaced(s, old_nb, fresh);
  });
}

void ProbingEstimator::on_churn(NodeId node, bool online) {
  if (!online) return;  // probe loop self-suspends while offline
  // "When a peer first joins the system, it initializes the session time of
  // each of its neighbors to 0" — the map default (absent => 0) realises
  // this; we only need to (re)start the probe loop.
  if (!loop_active_[node]) {
    loop_active_[node] = true;
    start_probe_loop(node);
  }
}

void ProbingEstimator::on_neighbor_replaced(NodeId s, NodeId old_neighbor, NodeId /*fresh*/) {
  // Forget the departed neighbour; the fresh one is initialised on first
  // sighting by probe(). D(s) changed, so every alpha_s(.) may have —
  // rebuild the cached denominator over the (already updated) neighbour set.
  session_time_.erase(session_key(s, old_neighbor));
  double total = 0.0;
  for (NodeId v : overlay_.neighbors(s)) {
    if (const sim::Time* t = session_time_.find(session_key(s, v))) total += *t;
  }
  total_[s] = total;
  ++epoch_[s];
}

void ProbingEstimator::start_probe_loop(NodeId s) {
  // Every probe is due one period after now, so probes take the FIFO lane.
  overlay_.simulator().schedule_fifo_in(cfg_.period, [this, s] { probe(s); });
}

void ProbingEstimator::probe(NodeId s) {
  if (!overlay_.is_online(s)) {
    // Peer went offline; suspend its loop. It restarts on the next join.
    loop_active_[s] = false;
    return;
  }
  ++probes_;
  ++epoch_[s];  // session times are about to move
  // One walk both updates session times and refreshes the cached
  // denominator. Each neighbour's own update lands before it is added, so
  // the accumulation below is the neighbour-order sum of the final values —
  // bit-identical to the per-query walk this cache replaced.
  double total = 0.0;
  for (NodeId u : overlay_.neighbors(s)) {
    // What this probe *observes* — ground truth unless a fault oracle is
    // installed (probe false negatives, partitions). A neighbour observed
    // dead simply fails to accumulate session time this period.
    const bool observed_alive = oracle_ ? oracle_(s, u) : overlay_.is_online(u);
    const core::PackedKey key = session_key(s, u);
    if (observed_alive) {
      if (sim::Time* t = session_time_.find(key)) {
        *t += cfg_.period;
      } else {
        // New neighbour first observed alive: t_s(u) = rand(0, T).
        auto init_stream = stream_.child("init", (static_cast<std::uint64_t>(s) << 32) | u);
        session_time_.get_or_insert(key) = init_stream.uniform(0.0, cfg_.period);
      }
    }
    if (const sim::Time* t = session_time_.find(key)) total += *t;
  }
  total_[s] = total;
  start_probe_loop(s);
}

double ProbingEstimator::availability(NodeId s, NodeId u) const {
  const double total = total_.at(s);
  if (total <= 0.0) {
    // No observations yet: uniform prior over the neighbour set.
    const auto d = overlay_.neighbors(s).size();
    return d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
  }
  const sim::Time* t = session_time_.find(session_key(s, u));
  return t == nullptr ? 0.0 : *t / total;
}

sim::Time ProbingEstimator::observed_session_time(NodeId s, NodeId u) const {
  const sim::Time* t = session_time_.find(session_key(s, u));
  return t == nullptr ? 0.0 : *t;
}

}  // namespace p2panon::net
