#include "traced.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/edge_quality.hpp"
#include "core/path.hpp"
#include "core/shard_history.hpp"
#include "core/suspicion.hpp"
#include "net/sharded_probing.hpp"
#include "payment/settlement.hpp"
#include "payment/sharded_settlement.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"

namespace perfbench {

namespace {

using namespace p2panon;
using harness::ScenarioConfig;
using harness::ScenarioResult;

SetupTimes measure_serial_setup(const ScenarioConfig& cfg) {
  SetupTimes t;
  const double t0 = process_cpu_seconds();
  sim::rng::Stream root(cfg.seed);
  sim::Simulator simulator;
  const double t1 = process_cpu_seconds();
  net::Overlay overlay(cfg.overlay, simulator, root.child("overlay"));
  const double t2 = process_cpu_seconds();
  net::ProbingEstimator probing(overlay, cfg.probing, root.child("probing"));
  const double t3 = process_cpu_seconds();
  payment::Bank bank(root.child("bank"));
  auto key_stream = root.child("mac-keys");
  const payment::Amount initial = payment::from_credits(cfg.initial_balance_credits);
  for (net::NodeId id = 0; id < overlay.size(); ++id) {
    bank.open_account(id, initial, key_stream.child("key", id).next_u64());
  }
  const double t4 = process_cpu_seconds();
  t.overlay = t2 - t1;
  t.probing = t3 - t2;
  t.bank = t4 - t3;
  t.total = t4 - t0;
  return t;
}

SetupTimes measure_sharded_setup(const ScenarioConfig& cfg) {
  SetupTimes t;
  const std::size_t n = cfg.overlay.node_count;
  const std::size_t d = cfg.overlay.degree;
  const double t0 = process_cpu_seconds();
  sim::ShardedSimulator engine(cfg.engine_shards, cfg.engine_window, nullptr);
  const net::ShardPartition partition(n, engine.shard_count());
  const auto stream = sim::rng::Stream(cfg.seed).child("paper-sharded");
  const net::LinkModel links(cfg.overlay.link, cfg.seed);
  const core::ShardedHistory history(partition);
  const double t1 = process_cpu_seconds();
  const payment::ShardedSettlementPlane plane(
      cfg.bank_partitions != 0 ? cfg.bank_partitions : engine.shard_count(), n,
      payment::from_credits(cfg.initial_balance_credits), stream.child("plane"));
  const double t2 = process_cpu_seconds();
  net::NodeStateSoA state;
  state.resize(n, d);
  const net::ShardedProbing probing(state, partition, cfg.probing.period,
                                    stream.child("probing"));
  const double t3 = process_cpu_seconds();
  auto nb_stream = stream.child("neighbors");
  for (net::NodeId id = 0; id < n; ++id) {
    const auto picks = nb_stream.sample_indices(n - 1, d);
    auto row = state.neighbors_of(id);
    for (std::size_t slot = 0; slot < picks.size(); ++slot) {
      row[slot] = static_cast<net::NodeId>(picks[slot] >= id ? picks[slot] + 1 : picks[slot]);
    }
  }
  const double t4 = process_cpu_seconds();
  t.bank = t2 - t1;
  t.probing = t3 - t2;
  t.overlay = t4 - t3;
  t.total = t4 - t0;
  return t;
}

}  // namespace

SetupTimes measure_setup(const ScenarioConfig& cfg) {
  return cfg.engine_shards > 1 ? measure_sharded_setup(cfg) : measure_serial_setup(cfg);
}

SpanTotals Tracer::totals() const {
  SpanTotals out;
  std::vector<double> child_time(spans_.size(), 0.0);
  std::vector<double> last_child_end(spans_.size(), -1.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out.total[s.name] += s.end - s.start;
    if (s.end < s.start) out.consistent = false;
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    // Spans are stored in open order, so siblings arrive by start time.
    if (s.start < spans_[p].start || s.end > spans_[p].end || s.start < last_child_end[p]) {
      out.consistent = false;
    }
    last_child_end[p] = s.end;
    child_time[p] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out.self[spans_[i].name] += (spans_[i].end - spans_[i].start) - child_time[i];
  }
  return out;
}

ScenarioResult run_traced(const ScenarioConfig& cfg, Tracer& tracer, TracedCounts& counts) {
  if (cfg.engine_shards > 1 || cfg.use_sharded_engine ||
      cfg.transport != harness::TransportBackend::kSim) {
    throw std::invalid_argument("run_traced drives the serial kSim scenario only");
  }
  Tracer* const tr = &tracer;
  const Scoped replicate_span(tr, "replicate");
  sim::rng::Stream root(cfg.seed);
  sim::Simulator simulator;

  std::int32_t span = tracer.open("setup.overlay");
  net::Overlay overlay(cfg.overlay, simulator, root.child("overlay"));
  tracer.close(span);
  span = tracer.open("setup.probing");
  net::ProbingEstimator probing(overlay, cfg.probing, root.child("probing"));
  tracer.close(span);
  overlay.add_churn_observer(
      [&counts](net::NodeId, bool, sim::Time) { ++counts.churn_notifications; });
  overlay.add_neighbor_observer([&counts](net::NodeId, net::NodeId, net::NodeId, sim::Time) {
    ++counts.neighbor_replacements;
  });
  core::HistoryStore history(overlay.size(), cfg.history_capacity);

  const bool fault_mode = cfg.fault.enabled();
  std::optional<core::SuspicionTracker> suspicion;
  if (fault_mode) suspicion.emplace(overlay.size(), cfg.suspicion_penalty);
  std::optional<fault::FaultInjector> faults;
  if (fault_mode) {
    faults.emplace(cfg.fault, overlay, root.child("faults"));
    probing.set_probe_oracle([&f = *faults](net::NodeId prober, net::NodeId target) {
      return f.probe_observation(prober, target);
    });
  }
  transport::SimTransport transport(simulator, overlay, faults ? &*faults : nullptr);

  core::EdgeQualityEvaluator quality(probing, history, cfg.weights,
                                     suspicion ? &*suspicion : nullptr);
  core::DecisionResources resources;
  core::PathBuilder builder(overlay, quality, cfg.path_builder,
                            cfg.use_decision_cache ? &resources : nullptr);
  core::PayoffLedger ledger(overlay.size());

  std::optional<core::AsyncConnectionRunner> setup_runner;
  std::optional<core::DataPhaseRunner> data_runner;
  if (fault_mode) {
    setup_runner.emplace(simulator, overlay, builder, cfg.async_setup, &*faults, &*suspicion,
                         &transport);
    data_runner.emplace(simulator, overlay, *setup_runner, cfg.data_phase, &*faults,
                        &transport);
  }

  const bool bank_mode = cfg.fault.bank.enabled();

  span = tracer.open("setup.bank");
  payment::Bank bank(root.child("bank"));
  payment::AuditLog audit;
  if (bank_mode) bank.attach_audit(&audit);
  payment::SettlementEngine engine(bank);
  auto key_stream = root.child("mac-keys");
  const payment::Amount initial = payment::from_credits(cfg.initial_balance_credits);
  for (net::NodeId id = 0; id < overlay.size(); ++id) {
    bank.open_account(id, initial, key_stream.child("key", id).next_u64());
  }
  const payment::Amount money_before = bank.total_money() + bank.outstanding_coin_value();
  tracer.close(span);

  span = tracer.open("schedule");
  const auto strategy = core::make_strategy(cfg.good_strategy, cfg.lookahead_depth);
  const TimedStrategy timed_strategy(*strategy, tracer, counts.route_decisions);
  core::StrategyAssignment strategies(overlay, timed_strategy);

  auto pair_stream = root.child("pairs");
  struct PairPlan {
    std::unique_ptr<core::ConnectionSetSession> session;
    sim::rng::Stream stream;
    std::uint32_t launched = 0;
  };
  std::vector<PairPlan> plans;
  plans.reserve(cfg.pair_count);
  for (net::PairId pid = 0; pid < cfg.pair_count; ++pid) {
    const auto initiator = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) {
      responder = cfg.responder_zipf > 0.0
                      ? static_cast<net::NodeId>(
                            pair_stream.zipf(overlay.size(), cfg.responder_zipf))
                      : static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    }
    core::Contract contract;
    contract.forwarding_benefit = pair_stream.uniform(cfg.p_f_lo, cfg.p_f_hi);
    contract.tau = cfg.tau;
    contract.termination = cfg.termination;
    contract.p_forward = cfg.p_forward;
    contract.ttl_hops = cfg.ttl_hops;
    contract.cid_rotation = cfg.cid_rotation;
    plans.emplace_back(
        std::make_unique<core::ConnectionSetSession>(pid, initiator, responder, contract),
        root.child("pair-run", pid));
    if (bank_mode && fault_mode) plans.back().session->enable_completion_tracking();
  }

  overlay.start();
  if (faults) faults->start();

  ScenarioResult result;
  result.new_edge_fraction_by_conn.resize(cfg.connections_per_pair);

  std::uint64_t connections_completed = 0;
  metrics::Accumulator latency;

  struct LaunchContext {
    const ScenarioConfig& cfg;
    std::vector<PairPlan>& plans;
    net::Overlay& overlay;
    core::PathBuilder& builder;
    core::HistoryStore& history;
    core::StrategyAssignment& strategies;
    core::PayoffLedger& ledger;
    std::optional<core::AsyncConnectionRunner>& setup_runner;
    std::optional<core::DataPhaseRunner>& data_runner;
    ScenarioResult& result;
    metrics::Accumulator& latency;
    std::uint64_t& connections_completed;
    bool fault_mode;
    bool track_completion;
    Tracer* tracer;
  };
  LaunchContext lctx{cfg,         plans,      overlay, builder,
                     history,     strategies, ledger,  setup_runner,
                     data_runner, result,     latency, connections_completed,
                     fault_mode,  bank_mode && fault_mode, tr};

  auto schedule_stream = root.child("schedule");
  sim::Time last_connection_at = cfg.warmup;
  for (net::PairId pid = 0; pid < cfg.pair_count; ++pid) {
    sim::Time at = cfg.warmup + schedule_stream.uniform(0.0, cfg.pair_start_window);
    for (std::uint32_t j = 0; j < cfg.connections_per_pair; ++j) {
      simulator.schedule_at(at, [ctx = &lctx, pid] {
        PairPlan& p = ctx->plans[pid];
        ctx->overlay.force_online(p.session->initiator());
        ctx->overlay.force_online(p.session->responder());
        if (!ctx->fault_mode) {
          const Scoped connection_span(ctx->tracer, "core.connection");
          const core::BuiltPath& path = p.session->run_connection(
              ctx->builder, ctx->history, ctx->strategies, ctx->ledger, ctx->overlay,
              p.stream, ctx->cfg.adversary);
          ctx->latency.add(ctx->overlay.links().path_latency(path.nodes));
          ++ctx->connections_completed;
          return;
        }

        const std::uint32_t conn = ++p.launched;
        const net::PairId wire_pair = p.session->effective_pair(conn);
        const std::uint32_t wire_index = p.session->effective_conn_index(conn);
        const Scoped connection_span(ctx->tracer, "core.connection");
        ctx->setup_runner->establish(
            wire_pair, wire_index, p.session->initiator(), p.session->responder(),
            p.session->contract(), ctx->strategies, p.stream.child("setup", conn),
            [ctx, pid, conn, wire_pair, wire_index](const core::AsyncResult& r) {
              PairPlan& plan = ctx->plans[pid];
              if (plan.session->settled()) return;
              ScenarioResult& result = ctx->result;
              result.setup_attempts += r.attempts;
              result.setup_ack_timeouts += r.ack_timeouts;
              result.reformations += r.attempts - 1;
              if (!r.established) {
                ++result.connections_failed;
                return;
              }
              result.setup_time.add(r.setup_time);
              const Scoped adopt_span(ctx->tracer, "core.connection");
              const core::BuiltPath& path = plan.session->adopt_connection(
                  r.path, ctx->history, ctx->ledger, ctx->overlay);
              const std::uint32_t adopted = plan.session->connections_run();
              ctx->latency.add(ctx->overlay.links().path_latency(path.nodes));
              ++ctx->connections_completed;
              ctx->data_runner->run(
                  wire_pair, wire_index, path, plan.session->contract(), ctx->strategies,
                  plan.stream.child("data", conn),
                  [ctx, pid, adopted](const core::DataPhaseResult& d) {
                    PairPlan& owner = ctx->plans[pid];
                    if (owner.session->settled()) return;
                    ScenarioResult& result = ctx->result;
                    result.keepalives_sent += d.keepalives_sent;
                    result.keepalives_delivered += d.keepalives_delivered;
                    result.failures_detected += d.failures_detected;
                    result.reformations += d.reformations;
                    result.setup_attempts += d.reform_setup_attempts;
                    for (const sim::Time lag : d.detection_delays) {
                      result.time_to_detect.add(lag);
                    }
                    const Scoped reform_span(ctx->tracer, "core.connection");
                    std::uint32_t live = adopted;
                    for (const core::BuiltPath& reformed : d.reformed_paths) {
                      (void)owner.session->adopt_connection(reformed, ctx->history,
                                                            ctx->ledger, ctx->overlay);
                      live = owner.session->connections_run();
                    }
                    if (ctx->track_completion && d.completed) {
                      owner.session->mark_completed(live);
                    }
                  });
            });
      });
      last_connection_at = std::max(last_connection_at, at);
      at += schedule_stream.exponential(1.0 / cfg.connection_interval_mean);
    }
  }
  tracer.close(span);

  const sim::Time tail =
      fault_mode ? cfg.data_phase.duration + sim::minutes(10.0) : sim::minutes(1.0);
  span = tracer.open("run");
  simulator.run_until(last_connection_at + tail);
  tracer.close(span);

  span = tracer.open("settle");
  auto settle_stream = root.child("settle");
  std::vector<core::SettleOutcome> outcomes;
  outcomes.reserve(plans.size());
  if (!bank_mode) {
    for (PairPlan& plan : plans) {
      outcomes.push_back(plan.session->settle(bank, engine, ledger, overlay, settle_stream));
    }
  } else {
    const fault::BankFaultConfig& bf = cfg.fault.bank;
    transport.set_bank_handler([&engine](const transport::wire::WireMessage& m) {
      if (const auto* c = std::get_if<transport::wire::ClaimMsg>(&m)) {
        (void)engine.submit_claim(c->sid, c->claimant, c->receipt);
      } else if (const auto* cl = std::get_if<transport::wire::CloseMsg>(&m)) {
        (void)engine.close(cl->sid);
      }
    });
    auto bank_fault_stream = root.child("bank-faults");
    const sim::Time t0 = simulator.now();
    const sim::Time deadline = t0 + bf.claim_deadline;
    std::vector<payment::SettlementId> sids(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      auto fs = bank_fault_stream.child("pair", i);
      const core::PreparedSettlement prep =
          plans[i].session->open_settlement(bank, engine, settle_stream, deadline);
      sids[i] = prep.sid;

      std::vector<payment::AccountId> drawn;
      std::vector<payment::AccountId> crashed;
      for (const core::ClaimSubmission& claim : prep.claims) {
        if (std::find(drawn.begin(), drawn.end(), claim.claimant) != drawn.end()) continue;
        drawn.push_back(claim.claimant);
        if (fs.bernoulli(bf.forwarder_crash)) crashed.push_back(claim.claimant);
      }

      for (const core::ClaimSubmission& claim : prep.claims) {
        if (std::find(crashed.begin(), crashed.end(), claim.claimant) != crashed.end()) {
          ++result.claims_lost;
          continue;
        }
        const sim::Time spread = fs.uniform(0.0, bf.claim_spread);
        const sim::Time delay =
            bf.claim_delay_mean > 0.0 ? fs.exponential(1.0 / bf.claim_delay_mean) : 0.0;
        if (fs.bernoulli(bf.claim_loss)) {
          ++result.claims_lost;
          continue;
        }
        simulator.schedule_at(
            t0 + spread + delay,
            [tp = &transport,
             m = transport::wire::ClaimMsg{prep.sid, claim.claimant, claim.receipt}] {
              tp->post_to_bank(m);
            });
      }

      if (!fs.bernoulli(bf.initiator_crash)) {
        simulator.schedule_at(t0 + bf.close_after,
                              [tp = &transport, m = transport::wire::CloseMsg{prep.sid}] {
                                tp->post_to_bank(m);
                              });
      }
    }
    simulator.schedule_at(deadline,
                          [&engine, &simulator] { (void)engine.expire_due(simulator.now()); });
    simulator.run_until(deadline + sim::minutes(1.0));
    for (std::size_t i = 0; i < plans.size(); ++i) {
      outcomes.push_back(plans[i].session->finalize_settlement(bank, engine, ledger, sids[i]));
    }
  }
  tracer.close(span);

  span = tracer.open("collect");
  std::vector<double> member_cost;
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    core::ConnectionSetSession& session = *plans[pi].session;
    const core::SettleOutcome& outcome = outcomes[pi];

    switch (outcome.report.outcome) {
      case payment::SettlementState::kClosed: ++result.settlements_closed; break;
      case payment::SettlementState::kAbandoned: ++result.settlements_abandoned; break;
      case payment::SettlementState::kExpired: ++result.settlements_expired; break;
      default: break;
    }
    if (outcome.report.pro_rata) ++result.settlements_prorata;
    result.settlement_escrow_milli += outcome.report.escrow_in;
    result.settlement_paid_milli += outcome.report.paid_out;
    result.settlement_refunded_milli += outcome.report.refunded;

    const auto set_size = static_cast<double>(outcome.forwarder_set_size);
    result.forwarder_set_size.add(set_size);
    result.avg_path_length.add(session.average_path_length());
    result.path_quality.add(session.path_quality());
    result.initiator_spend.add(outcome.initiator_spend);
    result.initiator_utility.add(cfg.anonymity(set_size) - outcome.initiator_spend);
    result.total_paid_credits += payment::to_credits(outcome.report.paid_out);
    result.reformations += session.reformations();

    const auto& fractions = session.new_edge_fractions();
    for (std::size_t j = 0; j < fractions.size() && j < result.new_edge_fraction_by_conn.size();
         ++j) {
      result.new_edge_fraction_by_conn[j].add(fractions[j]);
    }

    member_cost.assign(overlay.size(), 0.0);
    for (const core::BuiltPath& p : session.paths()) {
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
        member_cost[p.nodes[i]] +=
            overlay.links().transmission_cost(p.nodes[i], p.nodes[i + 1]);
      }
    }
    for (const auto& [acct, amount] : outcome.report.payouts) {
      const net::NodeId owner = bank.account_owner(acct);
      if (owner == net::kInvalidNode || !overlay.node(owner).is_good()) continue;
      const double payoff = payment::to_credits(amount) - member_cost[owner] -
                            overlay.node(owner).participation_cost;
      result.member_payoff.add(payoff);
      result.member_payoff_samples.push_back(payoff);
    }
  }

  result.good_payoff = ledger.good_node_payoffs(overlay);
  result.good_payoff_samples = ledger.good_node_payoff_samples(overlay);
  result.routing_efficiency =
      result.forwarder_set_size.mean() > 0.0
          ? result.member_payoff.mean() / result.forwarder_set_size.mean()
          : 0.0;

  const sim::EventQueue::Stats& queue_stats = simulator.queue_stats();
  result.engine_events_scheduled = queue_stats.scheduled;
  result.engine_events_cancelled = queue_stats.cancelled;
  result.engine_events_fired = queue_stats.fired;
  result.engine_callback_heap_allocs = queue_stats.callback_heap_allocs;
  const transport::TransportCounters& tc = transport.counters();
  result.transport_frames_sent = tc.frames_sent;
  result.transport_frames_delivered = tc.frames_delivered;
  result.transport_frames_dropped = tc.frames_dropped;
  result.transport_frames_rejected = tc.frames_rejected;
  result.transport_reconnects = tc.reconnects;
  result.transport_backoff_retries = tc.backoff_retries;
  result.transport_heartbeat_timeouts = tc.heartbeat_timeouts;
  result.transport_deadline_expiries = tc.deadline_expiries;

  result.connection_latency = latency;
  result.churn_events = overlay.churn_events();
  result.probes = probing.probes_performed();
  result.connections_completed = connections_completed;
  result.sim_end_time = simulator.now();
  if (faults) {
    result.crashes = faults->crashes();
    result.messages_dropped = faults->messages_dropped();
    result.probe_false_negatives = faults->probe_false_negatives();
  }
  result.claims_submitted = engine.claims_accepted() + engine.claims_rejected();
  result.claims_rejected = engine.claims_rejected();
  result.claims_after_terminal = engine.claims_after_terminal();
  tracer.close(span);

  span = tracer.open("reconcile");
  const payment::Amount money_after = bank.total_money() + bank.outstanding_coin_value();
  result.payment_conserved = money_before == money_after;
  if (bank_mode) {
    payment::ReplayState replayed;
    bool ok = audit.replay(replayed);
    ok = ok && replayed.accounts.size() == bank.account_count();
    for (payment::AccountId a = 0; ok && a < replayed.accounts.size(); ++a) {
      ok = replayed.accounts[a] == bank.balance(a);
    }
    ok = ok && replayed.escrows.size() == bank.escrow_count();
    for (payment::EscrowId e = 0; ok && e < replayed.escrows.size(); ++e) {
      ok = replayed.escrows[e] == bank.escrow_balance(e);
    }
    ok = ok && replayed.outstanding == bank.outstanding_coin_value();

    std::map<payment::AccountId, payment::Amount> audit_paid;
    payment::Amount audit_paid_total = 0;
    payment::Amount audit_refund_total = 0;
    for (const payment::Transaction& tx : audit.transactions()) {
      if (tx.kind == payment::TxKind::kEscrowPay) {
        audit_paid[tx.account] += tx.amount;
        audit_paid_total += tx.amount;
      } else if (tx.kind == payment::TxKind::kEscrowRefund) {
        audit_refund_total += tx.amount;
      }
    }
    std::map<payment::AccountId, payment::Amount> report_paid;
    for (const core::SettleOutcome& o : outcomes) {
      for (const auto& [acct, amount] : o.report.payouts) report_paid[acct] += amount;
    }
    ok = ok && audit_paid == report_paid;
    ok = ok && audit_paid_total == result.settlement_paid_milli;
    ok = ok && audit_refund_total == result.settlement_refunded_milli;
    result.settlement_reconciled = ok;
  }
  tracer.close(span);
  return result;
}

}  // namespace perfbench
