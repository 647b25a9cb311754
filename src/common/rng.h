// Deterministic, splittable random number generation.
//
// Every stochastic component in hypertune takes an explicit `Rng&` so that
// simulations are reproducible bit-for-bit from a single seed. The engine is
// xoshiro256** (public domain, Blackman & Vigna), seeded via splitmix64 as
// its authors recommend. `Rng::Split` derives an independent stream, which we
// use to give each trial / worker / hazard source its own generator without
// coupling their consumption patterns.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace hypertune {

/// splitmix64 step; used for seeding and stream derivation.
std::uint64_t SplitMix64(std::uint64_t& state);

/// xoshiro256** engine with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it can also be handed to
/// <random> distributions, though the built-in helpers below are preferred
/// for cross-platform determinism (libstdc++/libc++ distributions differ).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Raw 64 random bits.
  result_type operator()();

  /// Derives an independent generator; deterministic in (this state, salt).
  Rng Split(std::uint64_t salt = 0);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Log-uniform double in [lo, hi). Requires 0 < lo <= hi.
  double LogUniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t Index(std::size_t n);

  /// Standard normal via Box–Muller (deterministic across platforms).
  double Normal();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Exponential with the given rate (> 0).
  double Exponential(double rate);

  /// Raw engine state, for service-style snapshot/restore. set_state()
  /// alone drops the cached Box-Muller spare; snapshots keep it (see
  /// WriteRng/ReadRng in core/trial_json.h), so a restored stream repeats
  /// the original's draws bit for bit, normals included.
  std::array<std::uint64_t, 4> state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    s_ = state;
    has_spare_normal_ = false;
  }

  /// Box-Muller spare accessors; restoring the spare after set_state()
  /// makes the round-trip exact.
  bool has_spare_normal() const { return has_spare_normal_; }
  double spare_normal() const { return spare_normal_; }
  void set_spare_normal(bool has_spare, double spare) {
    has_spare_normal_ = has_spare;
    spare_normal_ = spare;
  }

 private:
  std::array<std::uint64_t, 4> s_;
  // Box–Muller produces pairs; cache the spare.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace hypertune
