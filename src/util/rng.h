// Deterministic random number generation for Monte-Carlo sampling.
//
// Two flavours are provided:
//  * SplitMix64 — a tiny sequential PRNG used where a stateful stream is fine.
//  * counter-based hashing (hash_u64 / CounterRng) — stateless, so that the
//    random draw for (seed, sample, entity) is a pure function.  This keeps
//    Monte-Carlo results bit-identical regardless of thread count or
//    iteration order, which the sampling-based insertion flow relies on.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace clktune::util {

/// SplitMix64: fast, well-distributed 64-bit PRNG (public-domain algorithm).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n).  n must be positive.
  std::uint64_t next_below(std::uint64_t n) { return next_u64() % n; }

  /// Standard normal via Box-Muller (one value per call; simple and exact
  /// enough for delay sampling).
  double next_normal() {
    // Avoid log(0).
    double u1 = 0.0;
    do {
      u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

 private:
  std::uint64_t state_;
};

/// Stateless 64-bit mixing of up to three words (SplitMix-style finalizer).
inline std::uint64_t hash_u64(std::uint64_t a, std::uint64_t b = 0,
                              std::uint64_t c = 0) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// sqrt by Newton's iteration from above, for constant tables: within an ulp
/// or two of std::sqrt for the positive, moderate arguments it is used on.
constexpr double newton_sqrt(double x) {
  double r = x > 1.0 ? x : 1.0;
  for (int i = 0; i < 64; ++i) r = 0.5 * (r + x / r);
  return r;
}

/// CounterRng::normal_radius_of's table, by leading-zero count 0..53.
inline constexpr std::array<double, 54> kNormalRadius = [] {
  std::array<double, 54> r{};
  for (std::size_t lz = 0; lz < r.size(); ++lz)
    r[lz] = newton_sqrt(2.0 * static_cast<double>(lz + 1) * std::numbers::ln2) *
            (1.0 + 1e-9);
  return r;
}();

/// Counter-based generator: each (seed, index pair) maps to an independent
/// uniform/normal draw.  Pure function of its arguments.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) : seed_(seed) {}

  double uniform(std::uint64_t i, std::uint64_t j = 0) const {
    return static_cast<double>(hash_u64(seed_, i, j) >> 11) * 0x1.0p-53;
  }

  /// Standard normal draw for counter (i, j), via Box-Muller on two
  /// decorrelated uniforms derived from the same counter.
  double normal(std::uint64_t i, std::uint64_t j = 0) const {
    return normal_of(hash_u64(seed_, i, j),
                     hash_u64(~seed_, j + 0x51ed270b, i));
  }

  /// A bound R with |normal(i, j)| <= R, from the first of its two hashes
  /// alone: a fraction of the draw's cost (one hash and a table lookup, no
  /// log, sqrt or cos).
  double normal_radius(std::uint64_t i, std::uint64_t j = 0) const {
    return normal_radius_of(hash_u64(seed_, i, j));
  }

  /// The Box-Muller draw of normal() from its two hashes.
  static double normal_of(std::uint64_t h1, std::uint64_t h2) {
    double u1 = static_cast<double>(h1 >> 11) * 0x1.0p-53;
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = static_cast<double>(h2 >> 11) * 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// The bound of normal_radius() from the first hash.  The draw is
  /// sqrt(-2 ln u1) * cos(2 pi u2) with |cos| <= 1, so its magnitude is at
  /// most sqrt(-2 ln u1).  With lz leading zeros in u1's 53-bit mantissa,
  /// u1 >= 2^-(lz+1) (a zero mantissa, lz = 53, is drawn as 2^-53), hence
  /// sqrt(-2 ln u1) <= sqrt(2 (lz+1) ln 2).  The table widens that by a
  /// relative 1e-9, far above the few ulps log and sqrt may round up by.
  static double normal_radius_of(std::uint64_t h1) {
    return kNormalRadius[static_cast<std::size_t>(
        std::countl_zero(h1 >> 11) - 11)];
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace clktune::util
