// Deterministic random number generation.
//
// Every experiment derives its stream from an explicit seed tuple
// (experiment id, vantage point, server, trial), so the whole bench suite is
// bit-for-bit reproducible while trials remain statistically independent.
// The generator is xoshiro256** seeded via splitmix64 — fast, tiny state,
// well-studied.
#pragma once

#include <algorithm>
#include <array>
#include <string_view>

#include "core/types.h"

namespace ys {

/// splitmix64 step; used for seeding and for hashing seed components.
constexpr u64 splitmix64(u64& state) {
  u64 z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG.
class Rng {
 public:
  explicit Rng(u64 seed) { reseed(seed); }

  /// Derive a seed from heterogeneous components (ids, indices, labels) so
  /// per-trial streams never collide accidentally.
  static u64 mix_seed(std::initializer_list<u64> components) {
    u64 s = 0x8000000000000001ULL;
    for (u64 c : components) {
      s ^= c + 0x9E3779B97F4A7C15ULL + (s << 6) + (s >> 2);
      splitmix64(s);
    }
    return s;
  }

  static u64 hash_label(std::string_view label) {
    u64 h = 0xcbf29ce484222325ULL;  // FNV-1a
    for (char c : label) {
      h ^= static_cast<u8>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  void reseed(u64 seed) {
    u64 sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  u32 next_u32() { return static_cast<u32>(next_u64() >> 32); }

  /// Uniform in [0, bound). bound must be > 0.
  u64 uniform(u64 bound) { return next_u64() % bound; }

  /// Uniform in [lo, hi] inclusive.
  i64 uniform_range(i64 lo, i64 hi) {
    return lo + static_cast<i64>(uniform(static_cast<u64>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return draw_below(chance_threshold(p));
  }

  /// chance(p)'s draw as an integer compare: for p in (0, 1),
  /// `uniform01() < p` exactly when `(next_u64() >> 11) < chance_threshold(p)`,
  /// because uniform01() is that 53-bit integer times the exact power
  /// 2^-53. The threshold is ceil(p * 2^53), taken without a libm call
  /// (the product is exact and below 2^53, so both conversions are too).
  /// A caller drawing with one p many times computes it once. Values of
  /// p >= 1 give 2^53 (always below); p <= 0 and NaN give 0 (never).
  static u64 chance_threshold(double p) {
    if (!(p > 0.0)) return 0;
    const double x = std::min(p, 1.0) * 0x1p53;
    const i64 floor_x = static_cast<i64>(x);
    return static_cast<u64>(floor_x + (static_cast<double>(floor_x) < x ? 1 : 0));
  }

  /// One 53-bit draw compared against a chance_threshold().
  bool draw_below(u64 threshold) { return (next_u64() >> 11) < threshold; }

  /// Fork an independent child stream (e.g. per connection).
  Rng fork() { return Rng(next_u64()); }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> state_{};
};

/// Rng::chance(p) with its threshold computed once, for a caller drawing
/// with one p many times: it draws exactly when chance(p) would (never for
/// p <= 0 or p >= 1) and gives the same result.
class Chance {
 public:
  explicit Chance(double p)
      : draws_(!(p <= 0.0) && !(p >= 1.0)), certain_(p >= 1.0),
        threshold_(draws_ ? Rng::chance_threshold(p) : 0) {}

  bool operator()(Rng& rng) const {
    return draws_ ? rng.draw_below(threshold_) : certain_;
  }

 private:
  bool draws_;
  bool certain_;
  u64 threshold_;
};

}  // namespace ys
