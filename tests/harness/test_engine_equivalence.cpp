// Bitwise equivalence against pre-change pinned dumps.
//
// The engine rebuild (slot-map EventQueue, EventCallback SBO, incremental
// probing totals, history ring buffer, launch-context/settlement refactors)
// claims to be a pure performance change: not one bit of any metric may move.
// The constants below are the exact IEEE-754 bit patterns produced by the
// commit *before* the rebuild (generated by running these scenarios at that
// HEAD); the test re-runs the scenarios on the current engine — serially and
// across thread-pool sizes — and compares bit for bit.
//
// If this test fails after an intentional semantic change, regenerate the
// pins from the last commit whose behaviour you mean to preserve. A failure
// after a "pure refactor" means the refactor was not pure.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>

#include "harness/checkpoint.hpp"
#include "harness/replicate.hpp"
#include "parallel/thread_pool.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

struct PinnedDouble {
  const char* name;
  std::uint64_t bits;
};
struct PinnedCount {
  const char* name;
  std::uint64_t value;
};

// Paper-default shape with the decision stack fully engaged (Model II,
// depth 3, adversaries) and bounded history, so FIFO eviction — the ring
// buffer — is on the hot path.
ScenarioConfig pinned_paper_config() {
  ScenarioConfig cfg = paper_default_config(97);
  cfg.good_strategy = core::StrategyKind::kUtilityModelII;
  cfg.lookahead_depth = 3;
  cfg.overlay.malicious_fraction = 0.1;
  cfg.adversary.drop_probability = 0.2;
  cfg.history_capacity = 64;
  return cfg;
}

// Fault mode: ack timers armed and cancelled per hop per leg, keepalives,
// crashes — the cancel-heavy workload the slot map exists for.
ScenarioConfig pinned_fault_config() {
  ScenarioConfig cfg = paper_default_config(131);
  cfg.overlay.node_count = 24;
  cfg.overlay.degree = 4;
  cfg.pair_count = 10;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);
  cfg.fault.link_loss = 0.05;
  cfg.fault.delay_jitter = 0.3;
  cfg.fault.crash_rate_per_hour = 5.0;
  cfg.fault.crash_recovery_mean = sim::minutes(10.0);
  cfg.fault.probe_false_negative = 0.1;
  cfg.async_setup.attempt_deadline = sim::minutes(3.0);
  cfg.data_phase.duration = 90.0;
  cfg.data_phase.keepalive_interval = 10.0;
  return cfg;
}

constexpr PinnedDouble kPaperDoubles[] = {
    {"good_payoff_mean", 0x40CAE0A28F81CECDULL},       // 13761.270004487969
    {"member_payoff_mean", 0x407A9893B047F8BAULL},     // 425.53605678666975
    {"forwarder_set_mean", 0x40291EB851EB851DULL},     // 12.559999999999997
    {"path_length_mean", 0x400D09374BC6A7F0ULL},       // 3.6295000000000002
    {"path_quality_mean", 0x3FD401530F3695B0ULL},      // 0.31258083806673209
    {"initiator_utility_mean", 0xC068591DAD87D80EULL}, // -194.78487278491997
    {"initiator_spend_mean", 0x40B5ED0B41F212D8ULL},   // 5613.0439750000005
    {"latency_mean", 0x3FF505F8624A4A20ULL},           // 1.3139575805149732
    {"efficiency_mean", 0x4040F9C869A571C0ULL},        // 33.951428609641425
    {"delivery_ratio_mean", 0x3FF0000000000000ULL},    // 1
    {"setup_time_mean", 0x0000000000000000ULL},        // 0
    {"time_to_detect_mean", 0x0000000000000000ULL},    // 0
};
constexpr PinnedCount kPaperCounts[] = {
    {"total_reformations", 441ULL},
    {"total_churn_events", 375ULL},
    {"total_connections_completed", 4000ULL},
    {"total_connections_failed", 0ULL},
    {"total_setup_attempts", 0ULL},
    {"total_ack_timeouts", 0ULL},
    {"total_crashes", 0ULL},
    {"total_messages_dropped", 0ULL},
    {"total_keepalives_sent", 0ULL},
    {"total_keepalives_delivered", 0ULL},
};

constexpr PinnedDouble kFaultDoubles[] = {
    {"good_payoff_mean", 0x40828F344C2D3533ULL},       // 593.90053592032052
    {"member_payoff_mean", 0x40723ED8C5873BDEULL},     // 291.9279227526257
    {"forwarder_set_mean", 0x4013555555555555ULL},     // 4.833333333333333
    {"path_length_mean", 0x3FFFC3C20D95366BULL},       // 1.9852924852924854
    {"path_quality_mean", 0x3FE0AB41D77485F0ULL},      // 0.5209054191693081
    {"initiator_utility_mean", 0x40B94B87CDAEF95EULL}, // 6475.5304822310263
    {"initiator_spend_mean", 0x409698B851EB851EULL},   // 1446.1799999999998
    {"latency_mean", 0x3FE943C77A31E1BDULL},           // 0.78952382913762842
    {"efficiency_mean", 0x405021759159448BULL},        // 64.522800767112287
    {"delivery_ratio_mean", 0x3FE6A904CEF0B9CFULL},    // 0.70813217561754438
    {"setup_time_mean", 0x404B06DD51674A4CULL},        // 54.053629088816336
    {"time_to_detect_mean", 0x4025DFB81BF80A00ULL},    // 10.936951517132002
};
constexpr PinnedCount kFaultCounts[] = {
    {"total_reformations", 467ULL},
    {"total_churn_events", 755ULL},
    {"total_connections_completed", 114ULL},
    {"total_connections_failed", 5ULL},
    {"total_setup_attempts", 1043ULL},
    {"total_ack_timeouts", 295ULL},
    {"total_crashes", 311ULL},
    {"total_messages_dropped", 426ULL},
    {"total_keepalives_sent", 624ULL},
    {"total_keepalives_delivered", 443ULL},
};

void expect_matches_pins(const ReplicatedResult& r,
                         const PinnedDouble (&doubles)[12],
                         const PinnedCount (&counts)[10]) {
  const double actual[12] = {
      r.good_payoff.mean(),       r.member_payoff.mean(),
      r.forwarder_set_size.mean(), r.avg_path_length.mean(),
      r.path_quality.mean(),      r.initiator_utility.mean(),
      r.initiator_spend.mean(),   r.connection_latency.mean(),
      r.routing_efficiency.mean(), r.delivery_ratio.mean(),
      r.setup_time.mean(),        r.time_to_detect.mean(),
  };
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]), doubles[i].bits)
        << doubles[i].name << " diverged from the pre-change pin: " << actual[i];
  }
  const std::uint64_t totals[10] = {
      r.total_reformations,          r.total_churn_events,
      r.total_connections_completed, r.total_connections_failed,
      r.total_setup_attempts,        r.total_ack_timeouts,
      r.total_crashes,               r.total_messages_dropped,
      r.total_keepalives_sent,       r.total_keepalives_delivered,
  };
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(totals[i], counts[i].value)
        << counts[i].name << " diverged from the pre-change pin";
  }
}

}  // namespace

TEST(EngineEquivalence, PaperDefaultMatchesPreChangePins) {
  expect_matches_pins(run_replicated(pinned_paper_config(), 2, nullptr),
                      kPaperDoubles, kPaperCounts);
}

TEST(EngineEquivalence, FaultModeMatchesPreChangePins) {
  expect_matches_pins(run_replicated(pinned_fault_config(), 3, nullptr),
                      kFaultDoubles, kFaultCounts);
}

TEST(EngineEquivalence, PinsHoldAcrossThreadPoolSizes) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    expect_matches_pins(run_replicated(pinned_paper_config(), 2, &pool),
                        kPaperDoubles, kPaperCounts);
    expect_matches_pins(run_replicated(pinned_fault_config(), 3, &pool),
                        kFaultDoubles, kFaultCounts);
  }
}

// --- Golden pins: engine, settlement and transport totals ------------------
//
// Recorded on the last commit that still carried the legacy message path
// (direct in-sim scheduling next to SimTransport) and the K = 1 windowed
// drive of the paper scenario. Both were deleted as pure simplifications;
// these constants are what proves the deletion moved no result. They extend
// the pins above with the counters those pins leave out — engine events,
// the settlement lifecycle, transport frames — and add a bank-fault config
// (lost/delayed claims, crashing initiators and forwarders) whose claim and
// close traffic crosses the settlement message plane.

namespace {

// Same shape as test_determinism's chaotic settlement config (seed 29).
ScenarioConfig pinned_bank_fault_config() {
  ScenarioConfig cfg = paper_default_config(29);
  cfg.overlay.node_count = 15;
  cfg.overlay.degree = 3;
  cfg.overlay.malicious_fraction = 0.2;
  cfg.pair_count = 6;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(20.0);
  cfg.pair_start_window = sim::minutes(20.0);
  cfg.fault.link_loss = 0.05;
  cfg.fault.delay_jitter = 0.3;
  cfg.fault.crash_rate_per_hour = 4.0;
  cfg.fault.crash_recovery_mean = sim::minutes(10.0);
  cfg.fault.probe_false_negative = 0.1;
  cfg.async_setup.attempt_deadline = sim::minutes(3.0);
  cfg.data_phase.duration = 60.0;
  cfg.data_phase.keepalive_interval = 10.0;
  cfg.fault.bank.claim_loss = 0.2;
  cfg.fault.bank.claim_delay_mean = sim::minutes(4.0);
  cfg.fault.bank.initiator_crash = 0.3;
  cfg.fault.bank.forwarder_crash = 0.15;
  cfg.fault.bank.claim_deadline = sim::minutes(20.0);
  cfg.fault.bank.close_after = sim::minutes(8.0);
  return cfg;
}

/// Engine, settlement and transport totals, in the order of kGolden*.
struct GoldenTotals {
  std::uint64_t engine[4];      ///< scheduled, cancelled, fired, heap allocs
  std::uint64_t settlement[8];  ///< closed, abandoned, expired, prorata, claims_*
  std::int64_t milli[3];        ///< escrow, paid, refunded
  bool reconciled;
  std::uint64_t transport[4];   ///< frames sent, delivered, dropped, rejected
  /// FNV-1a over the pooled payoff samples and the new-edge-fraction curve.
  std::uint64_t samples_digest;
};

struct U64Member {
  const char* name;
  std::uint64_t ReplicatedResult::* member;
};
constexpr U64Member kGoldenEngine[] = {
    {"total_engine_events_scheduled", &ReplicatedResult::total_engine_events_scheduled},
    {"total_engine_events_cancelled", &ReplicatedResult::total_engine_events_cancelled},
    {"total_engine_events_fired", &ReplicatedResult::total_engine_events_fired},
    {"total_engine_callback_heap_allocs", &ReplicatedResult::total_engine_callback_heap_allocs},
};
constexpr U64Member kGoldenSettlement[] = {
    {"total_settlements_closed", &ReplicatedResult::total_settlements_closed},
    {"total_settlements_abandoned", &ReplicatedResult::total_settlements_abandoned},
    {"total_settlements_expired", &ReplicatedResult::total_settlements_expired},
    {"total_settlements_prorata", &ReplicatedResult::total_settlements_prorata},
    {"total_claims_submitted", &ReplicatedResult::total_claims_submitted},
    {"total_claims_lost", &ReplicatedResult::total_claims_lost},
    {"total_claims_rejected", &ReplicatedResult::total_claims_rejected},
    {"total_claims_after_terminal", &ReplicatedResult::total_claims_after_terminal},
};
struct I64Member {
  const char* name;
  std::int64_t ReplicatedResult::* member;
};
constexpr I64Member kGoldenMilli[] = {
    {"total_settlement_escrow_milli", &ReplicatedResult::total_settlement_escrow_milli},
    {"total_settlement_paid_milli", &ReplicatedResult::total_settlement_paid_milli},
    {"total_settlement_refunded_milli", &ReplicatedResult::total_settlement_refunded_milli},
};
constexpr U64Member kGoldenTransport[] = {
    {"total_transport_frames_sent", &ReplicatedResult::total_transport_frames_sent},
    {"total_transport_frames_delivered", &ReplicatedResult::total_transport_frames_delivered},
    {"total_transport_frames_dropped", &ReplicatedResult::total_transport_frames_dropped},
    {"total_transport_frames_rejected", &ReplicatedResult::total_transport_frames_rejected},
};

std::uint64_t samples_digest(const ReplicatedResult& r) {
  std::uint64_t h = fnv1a_init();
  for (const double x : r.pooled_good_payoffs) h = fnv1a_double(h, x);
  for (const double x : r.pooled_member_payoffs) h = fnv1a_double(h, x);
  for (const metrics::Accumulator& acc : r.new_edge_fraction_by_conn) {
    h = fnv1a_mix(h, acc.count());
    h = fnv1a_double(h, acc.mean());
  }
  return h;
}

void expect_matches_golden(const ReplicatedResult& r, const GoldenTotals& pin) {
  for (std::size_t i = 0; i < std::size(kGoldenEngine); ++i) {
    EXPECT_EQ(r.*kGoldenEngine[i].member, pin.engine[i]) << kGoldenEngine[i].name;
  }
  for (std::size_t i = 0; i < std::size(kGoldenSettlement); ++i) {
    EXPECT_EQ(r.*kGoldenSettlement[i].member, pin.settlement[i]) << kGoldenSettlement[i].name;
  }
  for (std::size_t i = 0; i < std::size(kGoldenMilli); ++i) {
    EXPECT_EQ(r.*kGoldenMilli[i].member, pin.milli[i]) << kGoldenMilli[i].name;
  }
  EXPECT_EQ(r.all_settlements_reconciled, pin.reconciled);
  EXPECT_TRUE(r.all_payments_conserved);
  for (std::size_t i = 0; i < std::size(kGoldenTransport); ++i) {
    EXPECT_EQ(r.*kGoldenTransport[i].member, pin.transport[i]) << kGoldenTransport[i].name;
  }
  EXPECT_EQ(samples_digest(r), pin.samples_digest) << "pooled samples / new-edge curve";
  // The serial engine has no shards and no windows.
  EXPECT_EQ(r.total_engine_cross_shard_messages, 0u);
  EXPECT_EQ(r.total_engine_window_barriers, 0u);
}

constexpr GoldenTotals kPaperGolden = {
    {8637, 0, 8478, 0},
    {200, 0, 0, 0, 14518, 0, 0, 0},
    {1122608795, 1122608795, 0},
    true,
    {0, 0, 0, 0},  // the fault-free path sends no frames
    0xE3F3F4F9CA9D636DULL};
constexpr GoldenTotals kFaultGolden = {
    {17690, 1817, 15476, 0},
    {30, 0, 0, 0, 521, 0, 0, 0},
    {43385400, 43385400, 0},
    true,
    {8928, 8502, 426, 0},
    0xD3F04754B4DF84ECULL};
constexpr GoldenTotals kBankFaultGolden = {
    {8346, 781, 7332, 0},
    {11, 6, 1, 6, 166, 68, 104, 38},
    {19944927, 6302368, 13642559},
    true,
    {4138, 3920, 218, 0},
    0xF36402817353AA4DULL};

constexpr PinnedDouble kBankFaultDoubles[] = {
    {"good_payoff_mean", 0x405DEFB953AF7959ULL},        // 119.74568645607123
    {"member_payoff_mean", 0x406382C520C5098DULL},      // 156.08656347736215
    {"forwarder_set_mean", 0x4010E38E38E38E39ULL},      // 4.2222222222222223
    {"path_length_mean", 0x3FFBD844A0BBD2DAULL},        // 1.7402998236331571
    {"path_quality_mean", 0x3FDF00A1D139855FULL},       // 0.48441358024691356
    {"initiator_utility_mean", 0x40BE63E3D363F932ULL},  // 7779.8899443133723
    {"initiator_spend_mean", 0x4075E21AD9FF8B7DULL},    // 350.13155555555551
    {"latency_mean", 0x3FE6A03195DD02C0ULL},            // 0.70705489416294398
    {"efficiency_mean", 0x40450FF93A8D0916ULL},         // 42.124793356766688
    {"delivery_ratio_mean", 0x3FE814B30080EA80ULL},     // 0.75252676103930582
    {"setup_time_mean", 0x403BE45ACE548C80ULL},         // 27.892010589258007
    {"time_to_detect_mean", 0x40296B66A2BD7E64ULL},     // 12.709767423278386
};
constexpr PinnedCount kBankFaultCounts[] = {
    {"total_reformations", 185ULL},
    {"total_churn_events", 458ULL},
    {"total_connections_completed", 70ULL},
    {"total_connections_failed", 1ULL},
    {"total_setup_attempts", 391ULL},
    {"total_ack_timeouts", 122ULL},
    {"total_crashes", 180ULL},
    {"total_messages_dropped", 218ULL},
    {"total_keepalives_sent", 262ULL},
    {"total_keepalives_delivered", 198ULL},
};

}  // namespace

TEST(GoldenPins, PaperDefaultTotals) {
  expect_matches_golden(run_replicated(pinned_paper_config(), 2, nullptr), kPaperGolden);
}

TEST(GoldenPins, FaultModeTotals) {
  expect_matches_golden(run_replicated(pinned_fault_config(), 3, nullptr), kFaultGolden);
}

// The paper-fig benchmark point (Fig. 4: N = 40, f = 0.1, Utility Model II
// at depth 3, unbounded history), recorded before the lookahead's last
// level was bounded. Every hop decision runs the depth-3 lookahead, so a
// pruning rule that changed any best_onward_quality value would move a
// path, and with it these totals.
namespace {

ScenarioConfig pinned_paper_fig_config() {
  ScenarioConfig cfg = paper_default_config(7);
  cfg.overlay.malicious_fraction = 0.1;
  cfg.good_strategy = core::StrategyKind::kUtilityModelII;
  cfg.lookahead_depth = 3;
  return cfg;
}

constexpr GoldenTotals kPaperFigGolden = {
    {8888, 0, 8738, 0},
    {200, 0, 0, 0, 15774, 0, 0, 0},
    {1210067547, 1210067547, 0},
    true,
    {0, 0, 0, 0},  // the fault-free path sends no frames
    0xD658B19837B83859ULL};

}  // namespace

TEST(GoldenPins, PaperFigModel2Totals) {
  const ReplicatedResult r = run_replicated(pinned_paper_fig_config(), 2, nullptr);
  EXPECT_EQ(r.total_connections_completed, 4000u);
  EXPECT_EQ(r.total_connections_failed, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.path_quality.mean()), 0x3FD770667047B2ABULL)
      << "path_quality_mean: " << r.path_quality.mean();  // 0.36623536076403224
  expect_matches_golden(r, kPaperFigGolden);
}

TEST(GoldenPins, BankFaultModeMatchesPins) {
  const ReplicatedResult r = run_replicated(pinned_bank_fault_config(), 3, nullptr);
  ASSERT_GT(r.total_claims_submitted, 0u) << "config must actually submit claims";
  expect_matches_pins(r, kBankFaultDoubles, kBankFaultCounts);
  expect_matches_golden(r, kBankFaultGolden);
}
