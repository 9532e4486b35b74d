// Shard-partitioned connection history with barrier-merged read views.
//
// The serial scenario owns one HistoryStore and mutates it inline as paths
// complete. Under sim::ShardedSimulator that single store would be written
// concurrently from K shard threads, so the sharded full scenario splits it
// along the node partition: each shard owns the count indices of its own
// nodes' profiles, writes are *buffered* per source shard while a window
// runs, and the buffers are folded serially in the window-barrier hook at
// view-refresh epoch boundaries (src/harness/paper_sharded.cpp). Between
// folds the store is immutable, which is exactly what makes it a safe
// read-only merged view: any shard may evaluate the selectivity of any
// node's edges during a window and sees the same epoch snapshot regardless
// of K, pool size, or window length.
//
// Query semantics mirror HistoryProfile (core/history.hpp): selectivity of
// edge (s, v) conditioned on the current predecessor is
//
//   sigma(s, v) = #entries{(s -> v) | same pair, same predecessor} / (k - 1)
//
// with the per-(pair, predecessor) denominator kept O(1) so callers can
// collapse positions with provably-zero selectivity. Entries are keyed by
// (node, pair, predecessor, successor) in one packed flat map per shard.
// The sharded store is unbounded (the serial HistoryProfile's FIFO capacity
// is an ablation knob of the serial path); fold order is deterministic —
// shard-ascending, FIFO within a shard's buffer — so the folded counts are
// identical for any K.
//
// Epoch contract (lint rule R2): every fold bumps the monotone epoch_, and
// reads between folds are answered from the same epoch. Consumers that
// cache derived quantities compare epochs to self-invalidate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flat_hash.hpp"
#include "net/ids.hpp"
#include "net/soa.hpp"

namespace p2panon::core {

/// One buffered history write: node's profile gains an entry for `pair`
/// with the given adjacent hops. Buffered by the shard that completed the
/// connection; folded at the next epoch boundary.
struct HistoryDelta {
  net::NodeId node = net::kInvalidNode;
  net::PairId pair = net::kInvalidPair;
  net::NodeId predecessor = net::kInvalidNode;
  net::NodeId successor = net::kInvalidNode;
};

class ShardedHistory {
 public:
  explicit ShardedHistory(const net::ShardPartition& partition);

  // --- Read view (immutable between folds; callable from any shard).

  /// Stored entries matching (node, pair, predecessor, successor).
  [[nodiscard]] std::size_t count(net::NodeId node, net::PairId pair, net::NodeId predecessor,
                                  net::NodeId successor) const;

  /// Entries matching (node, pair, predecessor) across all successors — a
  /// zero denominator proves sigma == 0 for every successor at this
  /// position.
  [[nodiscard]] std::size_t position_count(net::NodeId node, net::PairId pair,
                                           net::NodeId predecessor) const;

  /// sigma(node, successor) for the k-th connection (1-based; k == 1 has no
  /// history and yields 0). Matches HistoryProfile::selectivity.
  [[nodiscard]] double selectivity(net::NodeId node, net::PairId pair, net::NodeId predecessor,
                                   net::NodeId successor, std::uint32_t k) const;

  [[nodiscard]] std::size_t total_entries() const noexcept;
  [[nodiscard]] std::size_t entries_in_shard(std::uint32_t shard) const {
    return entries_[shard];
  }

  /// Monotone fold counter; equal epochs guarantee identical answers.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- Write side (serial barrier hook only).

  /// Fold one buffer of deltas into the owning shards' count indices. Must
  /// run from the serial window-barrier hook; callers drain their per-shard
  /// buffers shard-ascending so the folded state is K-invariant.
  void fold(std::span<const HistoryDelta> deltas);

 private:
  [[nodiscard]] static PackedKey edge_key(net::NodeId node, net::PairId pair,
                                          net::NodeId predecessor,
                                          net::NodeId successor) noexcept {
    return PackedKey::of(node, pair, predecessor, successor);
  }
  [[nodiscard]] static PackedKey position_key(net::NodeId node, net::PairId pair,
                                              net::NodeId predecessor) noexcept {
    // Disambiguated from edge keys by the successor slot no real edge uses.
    return PackedKey::of(node, pair, predecessor, net::kInvalidNode);
  }

  const net::ShardPartition* partition_;
  std::vector<PackedFlatMap<std::uint32_t>> counts_;  ///< one index per shard
  std::vector<std::size_t> entries_;                  ///< folded entries per shard
  std::uint64_t epoch_ = 0;
};

}  // namespace p2panon::core
