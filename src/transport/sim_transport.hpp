// SimTransport: the discrete-event backend of the transport plane, and the
// one path every in-sim protocol message takes (setup legs, acks, NACKs,
// keepalives, claims, closes).
//
// The golden pins in tests/harness/test_engine_equivalence.cpp hold every
// result bitwise, which send() keeps by three rules:
//
//   1. fault drop draw FIRST, extra-delay draw SECOND (same RNG order);
//   2. one schedule_in() per surviving frame, with the caller's
//      continuation scheduled *unwrapped* — the event capture is the
//      caller's own lambda, so the engine's inline-callback buffer (and
//      its pinned zero heap-fallback count) is untouched;
//   3. no additional events, draws, or clock reads anywhere.
//
// Every frame also round-trips through the wire codec
// (encode -> decode -> operator==) before delivery. A message the codec
// cannot carry faithfully aborts the simulation — the in-sim protocol and
// the TCP wire format are forced to stay the same protocol.
#pragma once

#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "net/overlay.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"
#include "transport/wire_codec.hpp"

namespace p2panon::transport {

class SimTransport {
 public:
  SimTransport(sim::Simulator& sim, const net::Overlay& overlay,
               fault::FaultInjector* faults) noexcept
      : sim_(sim), overlay_(overlay), faults_(faults) {}

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  /// Frame `msg` and deliver it from -> to through the event engine.
  /// Returns false when the fault injector ate the frame (the caller's
  /// timeout machinery handles the loss). `deliver` is
  /// scheduled verbatim after the link's flight time.
  template <typename F>
  bool send(net::NodeId from, net::NodeId to, const wire::WireMessage& msg, F&& deliver) {
    ++counters_.frames_sent;
    verify_roundtrip(msg);
    if (faults_ != nullptr && faults_->drop_message(from, to)) {
      ++counters_.frames_dropped;
      return false;
    }
    sim::Time flight = overlay_.links().transfer_time(from, to);
    if (faults_ != nullptr) flight += faults_->extra_delay(from, to);
    ++counters_.frames_delivered;
    sim_.schedule_in(flight, std::forward<F>(deliver));
    return true;
  }

  /// The settlement plane: messages to the bank are framed and verified
  /// like any other, then dispatched synchronously inside the event that
  /// posts them (an extra hop here would perturb event ordering).
  void set_bank_handler(std::function<void(const wire::WireMessage&)> handler) {
    bank_handler_ = std::move(handler);
  }

  void post_to_bank(const wire::WireMessage& msg) {
    ++counters_.frames_sent;
    verify_roundtrip(msg);
    ++counters_.frames_delivered;
    if (bank_handler_) bank_handler_(msg);
  }

  [[nodiscard]] const TransportCounters& counters() const noexcept { return counters_; }

 private:
  /// Encode into the reused scratch buffer, decode back, require equality.
  /// Cannot legitimately fail — a mismatch means the codec lost
  /// information, which must be a loud build-breaking bug, not a counter.
  void verify_roundtrip(const wire::WireMessage& msg) {
    scratch_.clear();
    const std::size_t frame = encode(msg, scratch_);
    counters_.bytes_sent += frame;
    std::size_t consumed = 0;
    const DecodeResult r = decode(scratch_, decoded_, consumed);
    if (r != DecodeResult::kOk || consumed != frame || !(decoded_ == msg)) {
      ++counters_.frames_rejected;
      std::abort();  // codec drift: the wire cannot carry this message
    }
  }

  sim::Simulator& sim_;
  const net::Overlay& overlay_;
  fault::FaultInjector* faults_;
  std::function<void(const wire::WireMessage&)> bank_handler_;
  std::vector<std::byte> scratch_;
  wire::WireMessage decoded_;
  TransportCounters counters_;
};

}  // namespace p2panon::transport
