// perfbench: runs one benchmark workload as a closed loop of replicates and
// prints the raw per-replicate record as one JSON line. perfbench/run.py
// builds this binary, runs it, checks the fingerprints and turns the record
// into the benchmark's metrics.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1 [--cycle M]
//             [--canary a,b,...] [--trace-out FILE]
//   perfbench --workload W --fingerprint FROM COUNT
//
// Replicate i of a run uses seed S + i (with --cycle M: seeds run through
// 1..M, starting at S, so every replicate has a recorded reference) and
// starts when replicate i - 1 has finished. Canary seeds run first, untimed,
// so run.py can compare them with the recorded reference fingerprints. The
// sharded workload's pool has one thread per CPU the process may use.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sched.h>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/checkpoint.hpp"
#include "harness/paper_sharded.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace p2panon;
using harness::ScenarioResult;
using Clock = std::chrono::steady_clock;

/// FNV-1a over the simulated statistics a replicate must reproduce exactly.
std::uint64_t fingerprint(const ScenarioResult& r) {
  std::uint64_t h = harness::fnv1a_init();
  for (const std::uint64_t v : {
           r.connections_completed,
           r.connections_failed,
           static_cast<std::uint64_t>(std::llround(r.forwarder_set_size.sum())),
           r.settlements_closed,
           r.settlements_abandoned,
           r.settlements_expired,
           r.settlements_prorata,
           static_cast<std::uint64_t>(r.settlement_escrow_milli),
           static_cast<std::uint64_t>(r.settlement_paid_milli),
           static_cast<std::uint64_t>(r.settlement_refunded_milli),
           r.engine_events_fired,
           r.sharded_digest,
       }) {
    h = harness::fnv1a_mix(h, v);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t cycle = 0;
  std::vector<std::uint64_t> canaries;
  std::string trace_out;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> fingerprint_range;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--cycle") {
      o.cycle = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--canary") {
      std::stringstream list(next());
      for (std::string item; std::getline(list, item, ',');) {
        o.canaries.push_back(std::strtoull(item.c_str(), nullptr, 10));
      }
    } else if (a == "--fingerprint") {
      const auto from = std::strtoull(next().c_str(), nullptr, 10);
      o.fingerprint_range.emplace(from, std::strtoull(next().c_str(), nullptr, 10));
    } else {
      return std::nullopt;
    }
  }
  if (!perfbench::workload_config(o.workload, 1)) return std::nullopt;
  if (o.cycle && (o.seed == 0 || o.seed > o.cycle)) return std::nullopt;
  return o;
}

/// The CPUs this process may run on (nproc), at least 1.
std::size_t affinity_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// One replicate's result with its wall and process CPU seconds.
struct Timed {
  ScenarioResult result;
  double wall = 0.0;
  double cpu = 0.0;
};

/// Runs one workload's replicates.
class Runner {
 public:
  explicit Runner(const Options& o) : o_(o), pool_(affinity_cpus()), pool1_(1) {}

  [[nodiscard]] harness::ScenarioConfig config(std::uint64_t seed) const {
    return *perfbench::workload_config(o_.workload, seed);
  }
  [[nodiscard]] bool sharded() const { return config(1).engine_shards > 1; }
  [[nodiscard]] std::size_t threads() const { return pool_.thread_count(); }

  /// The program as users run it: ScenarioRunner::run, or the sharded paper
  /// runner on the full pool (or the 1-thread pool).
  Timed untraced(std::uint64_t seed, bool one_thread = false) {
    const auto cfg = config(seed);
    const auto t0 = Clock::now();
    const double c0 = perfbench::process_cpu_seconds();
    ScenarioResult r = cfg.engine_shards > 1
                           ? harness::run_paper_scenario_sharded(cfg, one_thread ? &pool1_ : &pool_)
                           : harness::ScenarioRunner(cfg).run();
    return {std::move(r), seconds_since(t0), perfbench::process_cpu_seconds() - c0};
  }

 private:
  const Options& o_;
  parallel::ThreadPool pool_;
  parallel::ThreadPool pool1_;
};

void counters_json(std::ostringstream& js, const ScenarioResult& r) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"churn_events", r.churn_events},
      {"probes", r.probes},
      {"events_fired", r.engine_events_fired},
      {"events_scheduled", r.engine_events_scheduled},
      {"events_cancelled", r.engine_events_cancelled},
      {"callback_heap_allocs", r.engine_callback_heap_allocs},
      {"window_barriers", r.engine_window_barriers},
      {"cross_shard_messages", r.engine_cross_shard_messages},
      {"connections_completed", r.connections_completed},
      {"connections_failed", r.connections_failed},
      {"setup_attempts", r.setup_attempts},
      {"ack_timeouts", r.setup_ack_timeouts},
      {"reformations", r.reformations},
      {"frames_sent", r.transport_frames_sent},
      {"frames_delivered", r.transport_frames_delivered},
      {"frames_dropped", r.transport_frames_dropped},
      {"frames_rejected", r.transport_frames_rejected},
      {"claims_submitted", r.claims_submitted},
      {"claims_rejected", r.claims_rejected},
      {"claims_lost", r.claims_lost},
      {"settlements_closed", r.settlements_closed},
      {"messages_dropped", r.messages_dropped},
      {"crashes", r.crashes},
  };
  js << "\"counters\":{";
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    js << (i ? "," : "") << '"' << fields[i].first << "\":" << fields[i].second;
  }
  js << '}';
}

void map_json(std::ostringstream& js, const char* key, const std::map<std::string, double>& m) {
  js << '"' << key << "\":{";
  bool first = true;
  for (const auto& [name, v] : m) {
    js << (first ? "" : ",") << '"' << name << "\":" << num(v);
    first = false;
  }
  js << '}';
}

/// The first traced replicate's spans, one JSON object per line.
void write_spans(const std::string& path, std::span<const perfbench::Span> spans) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start\":" << num(s.start)
        << ",\"end\":" << num(s.end) << ",\"parent\":" << s.parent
        << ",\"replicate\":" << s.replicate << "}\n";
  }
}

int run(const Options& o) {
  Runner runner(o);
  const bool sharded = runner.sharded();
  std::ostringstream js;
  js << std::boolalpha << "{\"workload\":\"" << o.workload << "\",\"threads\":" << runner.threads()
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"compiler\":\"" << kCompiler << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"assertions\":" << kAssertions << ",\"sharded\":" << sharded;

  // Known-answer replicates, untimed.
  js << ",\"canaries\":[";
  for (std::size_t i = 0; i < o.canaries.size(); ++i) {
    const ScenarioResult r = runner.untraced(o.canaries[i]).result;
    js << (i ? "," : "") << "{\"seed\":" << o.canaries[i] << ",\"fp\":\"" << hex(fingerprint(r))
       << "\",\"conserved\":" << r.payment_conserved
       << ",\"reconciled\":" << r.settlement_reconciled << '}';
  }
  js << ']';

  // The closed loop. After each replicate the loop rebuilds the world for
  // about a tenth of the replicate's time (at least once), so the set-up
  // samples see the same machine conditions as the replicates.
  js << ",\"replicates\":[";
  perfbench::Tracer tracer;
  std::vector<perfbench::SetupTimes> setups;
  const auto t_end = Clock::now() + std::chrono::duration<double>(o.seconds);
  for (std::uint64_t i = 0; i == 0 || Clock::now() < t_end; ++i) {
    const std::uint64_t seed = o.cycle ? 1 + (o.seed - 1 + i) % o.cycle : o.seed + i;
    std::ostringstream rec;
    rec << std::boolalpha;
    bool ok = true;
    std::optional<std::pair<ScenarioResult, double>> traced;
    perfbench::TracedCounts counts;
    perfbench::SpanTotals totals;
    // Traced and untraced runs alternate which goes first.
    const bool traced_first = o.trace && !sharded && i % 2 == 1;
    const auto run_traced = [&] {
      tracer.begin_replicate(seed);
      const auto t0 = Clock::now();
      if (sharded) {
        const perfbench::Scoped outer(&tracer, "run");
        traced.emplace(runner.untraced(seed).result, 0.0);
      } else {
        traced.emplace(perfbench::run_traced(runner.config(seed), tracer, counts), 0.0);
      }
      traced->second = seconds_since(t0);
      totals = tracer.totals();
      if (i == 0 && !o.trace_out.empty()) write_spans(o.trace_out, tracer.spans());
    };
    if (traced_first) run_traced();
    const Timed run = runner.untraced(seed);
    const ScenarioResult& r = run.result;
    const std::uint64_t fp = fingerprint(r);
    ok = ok && r.payment_conserved && r.settlement_reconciled;
    rec << "{\"seed\":" << seed << ",\"s\":" << num(run.wall) << ",\"cpu\":" << num(run.cpu)
        << ",\"fp\":\"" << hex(fp)
        << "\",\"conserved\":" << r.payment_conserved
        << ",\"reconciled\":" << r.settlement_reconciled;
    if (sharded && o.trace) {
      // Same config on a 1-thread pool: the determinism contract says the
      // digest is pool-size invariant; its time is parallel.speedup's base.
      const Timed one = runner.untraced(seed, true);
      const bool same = fingerprint(one.result) == fp;
      ok = ok && same;
      rec << ",\"pool1_s\":" << num(one.wall) << ",\"pool1_same\":" << same;
    }
    if (o.trace) {
      if (!traced_first) run_traced();
      const bool same = fingerprint(traced->first) == fp;
      ok = ok && same && totals.consistent;
      rec << ",\"traced_s\":" << num(traced->second) << ",\"traced_same\":" << same
          << ",\"spans_consistent\":" << totals.consistent << ',';
      map_json(rec, "span_total", totals.total);
      rec << ',';
      map_json(rec, "span_self", totals.self);
      rec << ",\"churn_notifications\":" << counts.churn_notifications
          << ",\"neighbor_replacements\":" << counts.neighbor_replacements
          << ",\"route_decisions\":" << counts.route_decisions << ',';
      counters_json(rec, r);
    } else {
      rec << ",\"events_fired\":" << r.engine_events_fired;
    }
    rec << ",\"ok\":" << ok << '}';
    js << (i ? "," : "") << rec.str();

    const auto setup_cfg = runner.config(seed);
    const auto t0 = Clock::now();
    do {
      setups.push_back(perfbench::measure_setup(setup_cfg));
    } while (seconds_since(t0) < 0.1 * run.wall);
  }
  js << "],\"setup\":{\"n\":" << setups.size();
  const std::pair<const char*, double perfbench::SetupTimes::*> parts[] = {
      {"total", &perfbench::SetupTimes::total},
      {"overlay", &perfbench::SetupTimes::overlay},
      {"probing", &perfbench::SetupTimes::probing},
      {"bank", &perfbench::SetupTimes::bank}};
  for (const auto& [name, field] : parts) {
    std::vector<double> xs;
    for (const perfbench::SetupTimes& t : setups) xs.push_back(t.*field);
    js << ",\"" << name << "\":" << num(median(xs));
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> o = parse(argc, argv);
  if (!o) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper-fig|fault-settle|sharded-k4 "
                 "--seed S --seconds T --trace 0|1 [--cycle M] [--canary a,b] [--trace-out F]\n"
                 "       perfbench --workload W --fingerprint FROM COUNT\n");
    return 2;
  }
  if (o->fingerprint_range) {
    Runner runner(*o);
    const auto [from, count] = *o->fingerprint_range;
    for (std::uint64_t seed = from; seed < from + count; ++seed) {
      const ScenarioResult r = runner.untraced(seed).result;
      std::printf("%" PRIu64 " %s %d\n", seed, hex(fingerprint(r)).c_str(),
                  r.payment_conserved && r.settlement_reconciled ? 1 : 0);
    }
    return 0;
  }
  return run(*o);
}
