// Bench-side tracing: in-memory spans recorded around the calls the
// benchmark makes into the library's public functions. Nothing here reaches
// into src/ — the spans sit at the boundary, in the benchmark's own code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/routing.hpp"

namespace perfbench {

/// One recorded interval. Times are host seconds since the tracer's epoch.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;  ///< index into the same replicate's spans; -1 = root
  std::uint64_t replicate = 0;
};

/// Per-name sums of one replicate's spans, plus each span name's self time
/// (duration minus the time its direct children cover).
struct SpanTotals {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
  /// Every child lies inside its parent and siblings do not overlap, so
  /// children + self add up to each parent span exactly.
  bool consistent = true;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 15); }

  /// Start recording a new replicate; drops the previous replicate's spans.
  void begin_replicate(std::uint64_t replicate) {
    spans_.clear();
    stack_.clear();
    replicate_ = replicate;
  }

  /// Open a span as a child of the innermost open span.
  std::int32_t open(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), replicate_});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  [[nodiscard]] std::span<const Span> spans() const noexcept { return spans_; }
  [[nodiscard]] SpanTotals totals() const;

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t replicate_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scoped() {
    if (t_) t_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

/// Timing decorator over a routing strategy: every choose() call the good
/// nodes make becomes a "core.route" span and one count in `decisions`.
/// The decision itself is the wrapped strategy's, unchanged.
class TimedStrategy final : public p2panon::core::RoutingStrategy {
 public:
  TimedStrategy(const RoutingStrategy& inner, Tracer& tracer, std::uint64_t& decisions)
      : inner_(inner), tracer_(tracer), decisions_(decisions) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  [[nodiscard]] p2panon::core::HopChoice choose(
      const p2panon::core::RoutingContext& ctx, p2panon::net::NodeId self,
      p2panon::net::NodeId pred, std::span<const p2panon::net::NodeId> candidates,
      p2panon::sim::rng::Stream& stream) const override {
    const Scoped span(&tracer_, "core.route");
    ++decisions_;
    return inner_.choose(ctx, self, pred, candidates, stream);
  }

 private:
  const RoutingStrategy& inner_;
  Tracer& tracer_;
  std::uint64_t& decisions_;
};

}  // namespace perfbench
