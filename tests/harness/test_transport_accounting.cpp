// Transport-plane accounting: every fault-mode leg/ack/NACK/keepalive and
// every bank-fault claim/close travels as a SimTransport frame, and the
// frame counters must account for each one exactly once.
//
// That the message path itself leaves every result bit where it was is
// pinned separately, by the golden totals in test_engine_equivalence.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/scenario.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig cfg = paper_default_config(seed);
  cfg.overlay.node_count = 15;
  cfg.overlay.degree = 3;
  cfg.overlay.malicious_fraction = 0.2;
  cfg.pair_count = 6;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(20.0);
  cfg.pair_start_window = sim::minutes(20.0);
  return cfg;
}

ScenarioConfig faulty_config(std::uint64_t seed) {
  ScenarioConfig cfg = small_config(seed);
  cfg.fault.link_loss = 0.05;
  cfg.fault.delay_jitter = 0.3;
  cfg.fault.crash_rate_per_hour = 4.0;
  cfg.fault.crash_recovery_mean = sim::minutes(10.0);
  cfg.fault.probe_false_negative = 0.1;
  cfg.async_setup.attempt_deadline = sim::minutes(3.0);
  cfg.data_phase.duration = 60.0;
  cfg.data_phase.keepalive_interval = 10.0;
  return cfg;
}

ScenarioConfig bank_fault_config(std::uint64_t seed) {
  ScenarioConfig cfg = faulty_config(seed);
  cfg.fault.bank.claim_loss = 0.2;
  cfg.fault.bank.claim_delay_mean = sim::minutes(4.0);
  cfg.fault.bank.initiator_crash = 0.3;
  cfg.fault.bank.forwarder_crash = 0.15;
  cfg.fault.bank.claim_deadline = sim::minutes(20.0);
  cfg.fault.bank.close_after = sim::minutes(8.0);
  return cfg;
}

/// Every frame is delivered or dropped, none is rejected by the codec, and
/// the TCP-only rows stay zero in-sim.
void expect_frames_balance(const ScenarioResult& r) {
  EXPECT_EQ(r.transport_frames_sent, r.transport_frames_delivered + r.transport_frames_dropped);
  EXPECT_EQ(r.transport_frames_rejected, 0u) << "self-encoded frames must round-trip";
  EXPECT_EQ(r.transport_reconnects, 0u);
  EXPECT_EQ(r.transport_backoff_retries, 0u);
  EXPECT_EQ(r.transport_heartbeat_timeouts, 0u);
  EXPECT_EQ(r.transport_deadline_expiries, 0u);
}

}  // namespace

TEST(TransportAccounting, FaultFreePathSendsNoFrames) {
  // The non-fault scenario runs connections synchronously: no messages, so
  // there is nothing to frame.
  for (std::uint64_t seed : {17ull, 18ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioResult r = ScenarioRunner(small_config(seed)).run();
    EXPECT_GT(r.connections_completed, 0u);
    EXPECT_EQ(r.transport_frames_sent, 0u);
    EXPECT_EQ(r.transport_frames_delivered, 0u);
    EXPECT_EQ(r.transport_frames_dropped, 0u);
    expect_frames_balance(r);
  }
}

TEST(TransportAccounting, FaultModeFramesBalance) {
  for (std::uint64_t seed : {23ull, 24ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioResult r = ScenarioRunner(faulty_config(seed)).run();
    ASSERT_GT(r.crashes, 0u) << "config must actually exercise fault mode";
    EXPECT_GT(r.transport_frames_sent, 0u);
    expect_frames_balance(r);
  }
}

TEST(TransportAccounting, BankFaultModeFramesBalance) {
  for (std::uint64_t seed : {29ull, 30ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioResult r = ScenarioRunner(bank_fault_config(seed)).run();
    ASSERT_GT(r.claims_submitted, 0u) << "config must actually submit claims";
    // Claim/close traffic rides the transport too, on top of legs/acks.
    EXPECT_GT(r.transport_frames_sent, r.keepalives_sent)
        << "claim/close frames should add to the data-plane traffic";
    expect_frames_balance(r);
  }
}

TEST(TransportAccounting, FramesDroppedMatchesTheInjectorCount) {
  // SimTransport's drop accounting and the injector's own counter observe
  // the same coin flips for legs/acks/keepalives. Claim/close frames are
  // dispatched synchronously and never dropped (claim loss is a separate
  // bank-fault stream counted in claims_lost, not in frame drops).
  const ScenarioResult r = ScenarioRunner(faulty_config(31)).run();
  EXPECT_GT(r.transport_frames_dropped, 0u);
  EXPECT_EQ(r.transport_frames_dropped, r.messages_dropped);
}
