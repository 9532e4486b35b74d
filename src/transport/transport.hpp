// The transport plane: one message contract, two carriers.
//
// Everything above this layer (path setup, data keepalives, claims,
// settlement) speaks wire::WireMessage. Below it sit two backends:
//
//   * SimTransport (sim_transport.hpp) — routes messages through the
//     discrete-event engine: fault draws, then one scheduled delivery
//     carrying the caller's own continuation. Every frame round-trips through the wire codec as a
//     self-check, so the in-sim protocol and the on-the-wire format cannot
//     drift apart.
//
//   * TcpTransport (tcp_transport.hpp) — carries the same frames between
//     real processes over loopback TCP: length-prefixed versioned framing,
//     capped jittered exponential reconnect backoff, per-request read
//     deadlines, heartbeat-based dead-peer detection, graceful Bye on clean
//     shutdown (a crash is silence — exactly the announced/unannounced
//     liveness split the decision layer models).
//
// Both report through the same counter block so ScenarioResult can surface
// transport behaviour uniformly.
#pragma once

#include <cstdint>

namespace p2panon::transport {

/// Frame- and liveness-level counters, shared by both backends. Sim runs
/// leave the TCP-only rows (reconnects, backoff, heartbeats, deadlines) at
/// zero; they exist so the reporting plumbing upstream is identical.
struct TransportCounters {
  std::uint64_t frames_sent = 0;       ///< send() calls (before drop decision)
  std::uint64_t frames_delivered = 0;  ///< handed to the link (sent minus dropped)
  std::uint64_t frames_dropped = 0;    ///< fault-injector drops (sim) / send failures (tcp)
  std::uint64_t frames_rejected = 0;   ///< inbound frames the codec refused
  std::uint64_t bytes_sent = 0;        ///< encoded frame bytes
  std::uint64_t reconnects = 0;        ///< successful re-dials after a lost connection
  std::uint64_t backoff_retries = 0;   ///< dial attempts that waited a backoff first
  std::uint64_t heartbeat_timeouts = 0;  ///< peers declared dead by heartbeat silence
  std::uint64_t deadline_expiries = 0;   ///< requests abandoned at the read deadline

  friend bool operator==(const TransportCounters&, const TransportCounters&) = default;
};

}  // namespace p2panon::transport
