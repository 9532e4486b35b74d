#include "sim/rng.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace p2panon::sim::rng {

std::uint64_t Stream::below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Stream::exponential(double rate) noexcept {
  assert(rate > 0.0);
  // Avoid log(0): next_double() is in [0,1), so 1-u is in (0,1].
  return -std::log(1.0 - next_double()) / rate;
}

double Stream::pareto(double alpha, double xm) noexcept {
  assert(alpha > 0.0 && xm > 0.0);
  const double u = 1.0 - next_double();  // (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

double Stream::bounded_pareto(double alpha, double lo, double hi) noexcept {
  assert(alpha > 0.0 && 0.0 < lo && lo < hi);
  // Inverse CDF of the bounded Pareto on [lo, hi].
  const double u = next_double();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

double Stream::normal(double mean, double stddev) noexcept {
  // Box-Muller, discarding the second variate to keep stream usage
  // position-independent (one draw pair per call).
  double u1 = 1.0 - next_double();  // (0,1]
  double u2 = next_double();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

std::size_t Stream::zipf(std::size_t n, double s) noexcept {
  assert(n > 0 && s >= 0.0);
  if (n == 1) return 0;
  // Inverse-CDF walk over the (unnormalised) weights 1/(k+1)^s.
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) total += std::pow(static_cast<double>(k + 1), -s);
  double u = next_double() * total;
  for (std::size_t k = 0; k < n; ++k) {
    u -= std::pow(static_cast<double>(k + 1), -s);
    if (u <= 0.0) return k;
  }
  return n - 1;  // floating-point slack
}

std::vector<std::size_t> Stream::sample_indices(std::size_t n, std::size_t k) noexcept {
  assert(k <= n);
  // Partial Fisher-Yates: step i swaps position i with a uniform position
  // j in [i, n) and emits what lands at i. The index vector stays virtual:
  // position p holds p unless a swap displaced it, and only displaced
  // positions are stored, in an open-addressing map of at least 2k slots
  // (step i stores one entry, at j). So a call costs O(k) whatever n is.
  // The stored keys are the uniform draws j, so their low bits serve as
  // the hash. Up to 16 picks (every overlay degree d) the map lives on the
  // stack and the returned vector is the only allocation.
  constexpr std::size_t kEmpty = ~std::size_t{0};
  constexpr std::size_t kStackSlots = 32;
  std::vector<std::size_t> out;
  out.reserve(k);
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * k, 2));
  const std::size_t mask = slots - 1;
  std::size_t stack_keys[kStackSlots];
  std::size_t stack_vals[kStackSlots];
  std::vector<std::size_t> heap;
  std::size_t* keys = stack_keys;
  std::size_t* vals = stack_vals;
  if (slots > kStackSlots) {
    heap.resize(2 * slots);
    keys = heap.data();
    vals = keys + slots;
  }
  std::fill_n(keys, slots, kEmpty);
  const auto slot_of = [&](std::size_t p) {
    std::size_t h = p & mask;
    while (keys[h] != kEmpty && keys[h] != p) h = (h + 1) & mask;
    return h;
  };
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    const std::size_t si = slot_of(i);
    const std::size_t at_i = keys[si] == kEmpty ? i : vals[si];
    const std::size_t sj = slot_of(j);
    out.push_back(keys[sj] == kEmpty ? j : vals[sj]);
    keys[sj] = j;
    vals[sj] = at_i;
  }
  return out;
}

double pareto_shape_for_median(double xm, double median) noexcept {
  assert(median > xm && xm > 0.0);
  // median = xm * 2^(1/alpha)  =>  alpha = ln 2 / ln(median / xm)
  return std::log(2.0) / std::log(median / xm);
}

double bounded_pareto_median(double alpha, double lo, double hi) noexcept {
  assert(alpha > 0.0 && 0.0 < lo && lo < hi);
  // CDF F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a); F(m) = 1/2 gives
  // (lo/m)^a = (1 + r) / 2 with r = (lo/hi)^a.
  const double r = std::pow(lo / hi, alpha);
  return lo * std::pow((1.0 + r) / 2.0, -1.0 / alpha);
}

double bounded_pareto_shape_for_median(double lo, double hi, double median) noexcept {
  assert(0.0 < lo && lo < median && median < hi);
  // As alpha -> 0 the bounded Pareto tends to log-uniform on [lo, hi], whose
  // median is the geometric mean sqrt(lo*hi) — the supremum of achievable
  // medians. Requesting more silently degenerates, so reject it loudly.
  assert(median < std::sqrt(lo * hi) &&
         "median unreachable: raise the bounded-Pareto upper bound");
  // The bounded median is strictly decreasing in alpha: bisect.
  double a_lo = 1e-6, a_hi = 64.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (a_lo + a_hi);
    if (bounded_pareto_median(mid, lo, hi) > median) {
      a_lo = mid;
    } else {
      a_hi = mid;
    }
  }
  return 0.5 * (a_lo + a_hi);
}

}  // namespace p2panon::sim::rng
