#include "net/overlay.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace p2panon::net {

namespace {

// Fenwick-tree step: the lowest set bit of i.
[[nodiscard]] constexpr std::size_t lowest_bit(std::size_t i) noexcept { return i & (~i + 1); }

}  // namespace

Overlay::Overlay(const OverlayConfig& cfg, sim::Simulator& simulator, sim::rng::Stream stream)
    : cfg_(cfg),
      sim_(simulator),
      stream_(stream),
      churn_(cfg.churn, stream.child("churn")),
      links_(cfg.link, stream.child("links").next_u64()) {
  assert(cfg.node_count >= 2);
  assert(cfg.degree >= 1 && cfg.degree < cfg.node_count);
  assert(cfg.malicious_fraction >= 0.0 && cfg.malicious_fraction <= 1.0);

  state_.resize(cfg.node_count, cfg.degree);
  for (NodeId id = 0; id < cfg.node_count; ++id) {
    state_.participation_cost[id] = cfg.participation_cost;
  }

  // Assign the malicious fraction uniformly at random.
  auto mal_stream = stream.child("malicious");
  const auto mal_count =
      static_cast<std::size_t>(cfg.malicious_fraction * static_cast<double>(cfg.node_count) + 0.5);
  for (std::size_t idx : mal_stream.sample_indices(cfg.node_count, mal_count)) {
    state_.kind[idx] = NodeKind::kMalicious;
  }

  // Each node randomly selects d distinct neighbours (paper §3), written
  // straight into the node's fixed-stride CSR row.
  auto nb_stream = stream.child("neighbors");
  for (NodeId id = 0; id < cfg.node_count; ++id) {
    auto picks = nb_stream.sample_indices(cfg.node_count - 1, cfg.degree);
    auto row = state_.neighbors_of(id);
    for (std::size_t slot = 0; slot < picks.size(); ++slot) {
      // Map [0, N-1) onto V \ {id}.
      const std::size_t p = picks[slot];
      row[slot] = static_cast<NodeId>(p >= id ? p + 1 : p);
    }
  }

  // Departure index: prepending slots in descending order leaves every
  // in-edge list ascending. Every node starts non-departed, and over an
  // all-ones array Fenwick entry i counts lowest_bit(i) elements.
  assert(cfg.node_count * cfg.degree < kNoSlot);
  in_head_.assign(cfg.node_count, kNoSlot);
  in_next_.assign(state_.neighbors.size(), kNoSlot);
  for (auto slot = static_cast<std::uint32_t>(state_.neighbors.size()); slot-- > 0;) {
    std::uint32_t& head = in_head_[state_.neighbors[slot]];
    in_next_[slot] = head;
    head = slot;
  }
  non_departed_tree_.resize(cfg.node_count + 1);
  for (std::size_t i = 0; i <= cfg.node_count; ++i) {
    non_departed_tree_[i] = static_cast<std::uint32_t>(lowest_bit(i));
  }
}

void Overlay::start() {
  // Poisson join process: nodes enter the system one by one in a random
  // order, with exponential inter-arrival gaps.
  std::vector<NodeId> order(state_.size());
  for (NodeId id = 0; id < state_.size(); ++id) order[id] = id;
  auto order_stream = stream_.child("join-order");
  order_stream.shuffle(order);

  sim::Time at = 0.0;
  for (NodeId id : order) {
    if (cfg_.malicious_always_online && state_.is_malicious(id)) {
      // Availability attackers are present from the very start and stay.
      sim_.schedule_at(0.0, [this, id] { do_join(id); });
      continue;
    }
    sim_.schedule_at(at, [this, id] { do_join(id); });
    at += churn_.next_join_gap();
  }
}

void Overlay::do_join(NodeId id) {
  if (state_.departed[id] != 0 || state_.online[id] != 0 || state_.crashed[id] != 0) return;
  state_.online[id] = 1;
  state_.tracker[id].on_join(sim_.now());
  ++churn_event_count_;
  notify_churn(id, true);
  if (!(cfg_.malicious_always_online && state_.is_malicious(id))) {
    schedule_leave(id);
  }
}

void Overlay::schedule_leave(NodeId id) {
  const sim::Time session = churn_.session_length();
  // Capture the session epoch: if the session ends abnormally (crash,
  // forced offline) before this fires, the epoch moves on and the stale
  // leave becomes a no-op instead of truncating a later session.
  const std::uint64_t epoch = state_.leave_epoch.at(id);
  sim_.schedule_in(session, [this, id, epoch] { do_leave(id, epoch); });
}

void Overlay::do_leave(NodeId id, std::uint64_t leave_epoch) {
  if (state_.online[id] == 0 || state_.leave_epoch[id] != leave_epoch) return;
  state_.online[id] = 0;
  state_.tracker[id].on_leave(sim_.now());
  ++churn_event_count_;
  notify_churn(id, false);

  if (churn_.is_final_departure()) {
    set_departed(id, true);
    replace_departed_neighbor(id);
    return;
  }
  const sim::Time gap = churn_.offline_gap();
  sim_.schedule_in(gap, [this, id] { do_join(id); });
}

void Overlay::force_online(NodeId id) {
  if (state_.online.at(id) != 0) return;
  set_departed(id, false);
  if (state_.crashed[id] != 0) {
    state_.crashed[id] = 0;
    ++state_.leave_epoch[id];
  }
  state_.online[id] = 1;
  state_.tracker[id].on_join(sim_.now());
  ++churn_event_count_;
  notify_churn(id, true);
  schedule_leave(id);
}

void Overlay::force_offline(NodeId id) {
  if (state_.online.at(id) == 0) return;
  state_.online[id] = 0;
  ++state_.leave_epoch[id];  // the pending natural leave belongs to a dead session
  state_.tracker[id].on_leave(sim_.now());
  ++churn_event_count_;
  notify_churn(id, false);
}

bool Overlay::crash(NodeId id) {
  if (state_.online.at(id) == 0 || state_.departed[id] != 0) return false;
  state_.online[id] = 0;
  state_.crashed[id] = 1;
  ++state_.leave_epoch[id];  // invalidate the session's pending graceful leave
  // Ground truth sees the downtime (availability, last_leave for the
  // time-to-detect metric) — but observers are NOT notified: that silence
  // is the entire point of a silent crash.
  state_.tracker[id].on_leave(sim_.now());
  ++churn_event_count_;
  return true;
}

void Overlay::recover(NodeId id) {
  if (state_.crashed.at(id) == 0) return;
  state_.crashed[id] = 0;
  ++state_.leave_epoch[id];
  if (state_.departed[id] != 0 || state_.online[id] != 0) return;
  state_.online[id] = 1;
  state_.tracker[id].on_join(sim_.now());
  ++churn_event_count_;
  notify_churn(id, true);  // a recovery is an ordinary, visible (re)join
  schedule_leave(id);
}

void Overlay::replace_departed_neighbor(NodeId departed) {
  // The slots naming `departed`, in ascending (owner, slot) order: the
  // order a scan of every row would meet them, so observers see the same
  // call sequence.
  std::uint32_t prev = kNoSlot;
  std::uint32_t slot = in_head_[departed];
  while (slot != kNoSlot) {
    const std::uint32_t next = in_next_[slot];
    const auto owner = static_cast<NodeId>(slot / state_.degree);
    assert(owner != departed && "rows never name their owner");
    const NodeId fresh = pick_replacement(owner, departed);
    if (fresh == kInvalidNode) {
      prev = slot;  // nobody suitable; keep stale entry
    } else {
      (prev == kNoSlot ? in_head_[departed] : in_next_[prev]) = next;
      state_.neighbors[slot] = fresh;
      link_in_edge(slot);
      for (const auto& obs : neighbor_observers_) obs(owner, departed, fresh, sim_.now());
    }
    slot = next;
  }
}

NodeId Overlay::pick_replacement(NodeId owner, NodeId departed) {
  // Candidates: any non-departed node that is not the owner, not the departed
  // neighbour, and not already in D(owner), in ascending id order. The draw
  // picks candidate `rank`; it is found by skipping the excluded nodes over
  // the Fenwick ranks of the non-departed ones, without listing candidates.
  excluded_.clear();
  const auto exclude = [this](NodeId c) {
    if (state_.departed[c] == 0) excluded_.push_back(c);
  };
  exclude(owner);
  exclude(departed);
  for (NodeId nb : state_.neighbors_of(owner)) exclude(nb);
  std::sort(excluded_.begin(), excluded_.end());
  excluded_.erase(std::unique(excluded_.begin(), excluded_.end()), excluded_.end());

  const std::size_t candidates = non_departed_before(static_cast<NodeId>(size())) -
                                 excluded_.size();
  if (candidates == 0) return kInvalidNode;
  auto pick_stream = stream_.child("replacement", (static_cast<std::uint64_t>(owner) << 32) ^
                                                      churn_event_count_);
  // Candidate `rank` is the non-departed node of rank `rank` plus one for
  // every excluded node at or below it.
  auto rank = static_cast<std::size_t>(pick_stream.below(candidates));
  for (NodeId e : excluded_) {
    if (non_departed_before(e) > rank) break;
    ++rank;
  }
  return non_departed_at(rank);
}

void Overlay::set_departed(NodeId id, bool departed) {
  if ((state_.departed[id] != 0) == departed) return;
  state_.departed[id] = departed ? 1 : 0;
  for (std::size_t i = std::size_t{id} + 1; i < non_departed_tree_.size(); i += lowest_bit(i)) {
    if (departed) {
      --non_departed_tree_[i];
    } else {
      ++non_departed_tree_[i];
    }
  }
}

void Overlay::link_in_edge(std::uint32_t slot) {
  std::uint32_t* link = &in_head_[state_.neighbors[slot]];
  while (*link != kNoSlot && *link < slot) link = &in_next_[*link];
  in_next_[slot] = *link;
  *link = slot;
}

std::size_t Overlay::non_departed_before(NodeId v) const noexcept {
  std::size_t count = 0;
  for (std::size_t i = v; i > 0; i -= lowest_bit(i)) count += non_departed_tree_[i];
  return count;
}

NodeId Overlay::non_departed_at(std::size_t rank) const noexcept {
  // Fenwick descent: the largest prefix holding at most `rank` non-departed
  // nodes ends just before the answer.
  std::size_t pos = 0;
  for (std::size_t step = std::bit_floor(size()); step > 0; step >>= 1) {
    if (pos + step <= size() && non_departed_tree_[pos + step] <= rank) {
      pos += step;
      rank -= non_departed_tree_[pos];
    }
  }
  return static_cast<NodeId>(pos);
}

std::vector<NodeId> Overlay::in_neighbors(NodeId v) const {
  std::vector<NodeId> owners;
  for (std::uint32_t slot = in_head_.at(v); slot != kNoSlot; slot = in_next_[slot]) {
    owners.push_back(static_cast<NodeId>(slot / state_.degree));
  }
  return owners;
}

void Overlay::notify_churn(NodeId id, bool online) {
  for (const auto& obs : churn_observers_) obs(id, online, sim_.now());
}

std::vector<NodeId> Overlay::online_nodes() const {
  std::vector<NodeId> out;
  out.reserve(state_.size());
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_.online[id] != 0) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Overlay::online_neighbors(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId nb : state_.neighbors_of(id)) {
    if (state_.online.at(nb) != 0) out.push_back(nb);
  }
  return out;
}

std::vector<NodeId> Overlay::good_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_.is_good(id)) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Overlay::malicious_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_.is_malicious(id)) out.push_back(id);
  }
  return out;
}

}  // namespace p2panon::net
