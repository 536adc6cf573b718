// Deterministic random number generation.
//
// Every stochastic component in the library (noise front ends, clutter
// fluctuation, DE-GA) takes an explicit seed so experiments reproduce
// bit-for-bit. The generator is defined here, not borrowed from the
// standard library: the engine is mt19937_64 exactly as [rand.eng.mers]
// specifies it, and each distribution is a fixed algorithm (see
// random.cpp and DESIGN.md §7), so a seed names the same draws on every
// toolchain.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "ros/common/units.hpp"

namespace ros::common {

/// SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
/// number generators"): a cheap bijective avalanche mix of a 64-bit
/// word. Building block for derive_stream_seed.
std::uint64_t splitmix64(std::uint64_t x);

/// Derive the seed of an independent sub-stream `stream` from a master
/// `seed`. Counter-based: stream k of a given seed is always the same
/// value, distinct streams decorrelate even for adjacent counters, and
/// no draws from any other stream are consumed — which is what lets a
/// parallel loop give frame/trial k its own Rng and still match the
/// serial run bit for bit.
std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Seedable random source. Not thread-safe; use one per thread (e.g.
/// one per derive_stream_seed stream inside a parallel_for body).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Standard normal scaled: N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Circularly symmetric complex Gaussian with total power
  /// E[|x|^2] = `power` (i.e. each quadrature has variance power/2).
  cplx complex_gaussian(double power);

  /// Add complex_gaussian(power) to every sample of `out`, in order.
  /// Same draws and same engine state afterwards as the per-sample
  /// loop, without its per-call overhead.
  void add_complex_gaussian(std::span<cplx> out, double power);

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Next raw 64-bit engine output.
  std::uint64_t next_u64() {
    if (next_ == kStateWords) refill();
    return out_[next_++];
  }

 private:
  static constexpr std::size_t kStateWords = 312;

  void refill();
  double canonical();
  double polar_normal();

  std::array<std::uint64_t, kStateWords> state_;
  std::array<std::uint64_t, kStateWords> out_;  // tempered current batch
  std::size_t next_ = kStateWords;
};

}  // namespace ros::common
